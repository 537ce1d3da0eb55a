"""Named initial-data profiles.

Every scenario in the CLI (and most acceptance experiments) starts from one of
these four families, so each is reachable from config alone; `ProfileOptions`
holds their nine parameters, with the defaults and checks the CLI's
`init.<param>` keys read:

    gaussian(sigma, amplitude)       amplitude * r^{-rho} exp(-r^2/(2 sigma^2))
    ground-state(mu, nu_s)           mu * Q(nu_s r) for the solved ground state
    pseudo-conformal(T_star, theta, t0)   blow-up family snapshot at t = t0
    shell(s0, width, amplitude)      amplitude * exp(-(r-s0)^2/(2 width^2))

The gaussian carries the r^{-rho} origin envelope: for a != 0 a plain Gaussian
is outside the natural domain of L_a (its Bessel-mode coefficients decay only
algebraically), which would poison spectral accuracy of the evolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import pseudo_conformal_family
from .functionals import rescale
from .grid import RadialGrid
from .params import ModelParams
from .transform import TransformPlan

PROFILE_NAMES = ("gaussian", "ground-state", "pseudo-conformal", "shell")


@dataclass(frozen=True)
class ProfileOptions:
    sigma: float = 1.0        # gaussian
    amplitude: float = 1.0    # gaussian, shell
    mu: float = 1.0           # ground-state
    nu_s: float = 1.0
    T_star: float = 1.0       # pseudo-conformal
    theta: float = 0.0
    t0: float = 0.0
    s0: float = 2.0           # shell
    width: float = 0.5

    def __post_init__(self):
        """Raises ValueError naming every failing field, one per line."""
        errors = [f"{name} must be positive and finite, got {getattr(self, name)!r}"
                  for name in ("sigma", "mu", "nu_s", "T_star", "s0", "width")
                  if not 0 < getattr(self, name) < math.inf]
        errors += [f"{name} must be finite, got {getattr(self, name)!r}"
                   for name in ("amplitude", "theta") if not math.isfinite(getattr(self, name))]
        t_max = self.T_star if 0 < self.T_star < math.inf else math.inf
        if not 0 <= self.t0 < t_max:
            errors.append(f"t0 must satisfy 0 <= t0 < T_star = {self.T_star!r}, "
                          f"got {self.t0!r}")
        if errors:
            raise ValueError("\n".join(errors))


def gaussian_profile(params: ModelParams, grid: RadialGrid, sigma: float = ProfileOptions.sigma,
                     amplitude: float = ProfileOptions.amplitude) -> np.ndarray:
    ProfileOptions(sigma=sigma, amplitude=amplitude)   # raises naming each bad argument
    r = grid.r
    return amplitude * r**(-params.rho) * np.exp(-r**2 / (2 * sigma**2))


def shell_profile(params: ModelParams, grid: RadialGrid, s0: float, width: float,
                  amplitude: float = ProfileOptions.amplitude) -> np.ndarray:
    ProfileOptions(s0=s0, width=width, amplitude=amplitude)   # raises naming each bad argument
    r = grid.r
    return amplitude * np.exp(-(r - s0)**2 / (2 * width**2))


def make_initial_data(name: str, opts: dict, params: ModelParams,
                      grid: RadialGrid, plan: TransformPlan | None = None,
                      Q: np.ndarray | None = None) -> np.ndarray:
    """Dispatch by profile name; `opts` holds the ProfileOptions fields to set.

    The ground-state-based profiles require the solved Q (and, for the
    pseudo-conformal family, the transform plan).
    """
    o = ProfileOptions(**opts)
    if name == "gaussian":
        return gaussian_profile(params, grid, o.sigma, o.amplitude)
    if name == "shell":
        return shell_profile(params, grid, o.s0, o.width, o.amplitude)
    if name in ("ground-state", "pseudo-conformal"):
        if Q is None:
            raise ValueError(f"profile {name!r} requires a solved ground state")
        if name == "ground-state":
            return rescale(Q, grid, params.rho, o.mu, o.nu_s)
        if plan is None:
            raise ValueError("pseudo-conformal profile requires a transform plan")
        return pseudo_conformal_family(Q, o.T_star, o.theta, o.t0, plan)
    raise ValueError(f"unknown profile {name!r}; expected one of {PROFILE_NAMES}")
