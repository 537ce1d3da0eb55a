"""Named initial-data profiles.

Every scenario in the CLI (and most acceptance experiments) starts from one of
these four families, so each is reachable from config alone:

    gaussian(sigma, amplitude)       amplitude * r^{-rho} exp(-r^2/(2 sigma^2))
    ground-state(mu, nu_s)           mu * Q(nu_s r) for the solved ground state
    pseudo-conformal(T_star, theta, t0)   blow-up family snapshot at t = t0
    shell(s0, width, amplitude)      amplitude * exp(-(r-s0)^2/(2 width^2))

The gaussian carries the r^{-rho} origin envelope: for a != 0 a plain Gaussian
is outside the natural domain of L_a (its Bessel-mode coefficients decay only
algebraically), which would poison spectral accuracy of the evolution.
"""

from __future__ import annotations

import numpy as np

from .evolution import pseudo_conformal_family
from .functionals import rescale
from .grid import RadialGrid
from .params import ModelParams
from .transform import TransformPlan

PROFILE_NAMES = ("gaussian", "ground-state", "pseudo-conformal", "shell")


def gaussian_profile(params: ModelParams, grid: RadialGrid,
                     sigma: float = 1.0, amplitude: float = 1.0) -> np.ndarray:
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    r = grid.r
    return amplitude * r**(-params.rho) * np.exp(-r**2 / (2 * sigma**2))


def shell_profile(params: ModelParams, grid: RadialGrid, s0: float,
                  width: float, amplitude: float = 1.0) -> np.ndarray:
    if s0 <= 0 or width <= 0:
        raise ValueError(f"shell needs s0 > 0 and width > 0, got {s0}, {width}")
    r = grid.r
    return amplitude * np.exp(-(r - s0)**2 / (2 * width**2))


def make_initial_data(name: str, opts: dict, params: ModelParams,
                      grid: RadialGrid, plan: TransformPlan | None = None,
                      Q: np.ndarray | None = None) -> np.ndarray:
    """Dispatch by profile name; `opts` holds the profile parameters.

    The ground-state-based profiles require the solved Q (and, for the
    pseudo-conformal family, the transform plan).
    """
    if name == "gaussian":
        return gaussian_profile(params, grid, opts.get("sigma", 1.0),
                                opts.get("amplitude", 1.0))
    if name == "shell":
        return shell_profile(params, grid, opts.get("s0", 2.0),
                             opts.get("width", 0.5), opts.get("amplitude", 1.0))
    if name in ("ground-state", "pseudo-conformal"):
        if Q is None:
            raise ValueError(f"profile {name!r} requires a solved ground state")
        if name == "ground-state":
            return rescale(Q, grid, params.rho, opts.get("mu", 1.0),
                           opts.get("nu_s", 1.0))
        if plan is None:
            raise ValueError("pseudo-conformal profile requires a transform plan")
        return pseudo_conformal_family(Q, opts.get("T_star", 1.0),
                                       opts.get("theta", 0.0),
                                       opts.get("t0", 0.0), plan)
    raise ValueError(f"unknown profile {name!r}; expected one of {PROFILE_NAMES}")
