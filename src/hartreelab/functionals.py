"""The five scalar functionals and scaling/rearrangement utilities.

Conventions (used identically everywhere in the package):

    M(u)   = (1/2) int |u|^2
    H(u)   = (1/2) int (|grad u|^2 + a |u|^2/|x|^2)  =  (1/2) <u, L_a u>
    L_V(u) = (1/4) iint |u(x)|^2 |u(y)|^2 / |x-y|^2
    E(u)   = H(u) - L_V(u)
    J(u)   = M(u) H(u) / L_V(u)        (undefined, reported as None, if L_V = 0)

All radial integrals carry the surface factor omega_{d-1} = 2 pi^{d/2}/Gamma(d/2).
Under u -> mu * u(nu_s .): M -> mu^2 nu_s^{-d} M, H -> mu^2 nu_s^{2-d} H,
L_V -> mu^4 nu_s^{2-2d} L_V, and J is invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import RadialGrid, boundary_mass_fraction, class_weights, dilate, radial_derivative
from .hartree import KernelMatrix, lv_value
from .transform import TransformPlan, apply_la

RESCALE_TAIL_TOL = 1e-10   # largest mass share rescale leaves in the outer cells


@dataclass(frozen=True)
class Quantities:
    M: float
    H: float
    E: float
    L_V: float
    J: float | None


def _check_finite(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u)
    if not np.all(np.isfinite(u)):
        raise ValueError("field contains non-finite samples")
    return u


def functionals(u: np.ndarray, plan: TransformPlan, km: KernelMatrix,
                lau: np.ndarray | None = None) -> Quantities:
    """M, H, E, L_V and J of u; `lau` is L_a u when the caller has it."""
    u = _check_finite(u)
    w, om = plan.grid.w, km.omega
    if lau is None:
        lau = apply_la(plan, u)
    M = 0.5 * om * float(np.sum(w * np.abs(u)**2))
    H = 0.5 * om * float(np.real(np.sum(w * np.conj(u) * lau)))
    LV = lv_value(km, u)
    E = H - LV
    J = (M * H / LV) if LV > 0 else None
    return Quantities(M=M, H=H, E=E, L_V=LV, J=J)


def rescale(u: np.ndarray, grid: RadialGrid, rho: float, mu: float,
            nu_s: float) -> np.ndarray:
    """mu * u(nu_s * r) for a field with the r^{-rho} origin envelope, by
    `grid.dilate` (zero beyond r_max: the Dirichlet truncation).

    If the rescaled field carries more than RESCALE_TAIL_TOL of its mass in
    the outermost cells, the content is escaping the grid and an error is
    raised.
    """
    u = _check_finite(u)
    if not all(x > 0 and np.isfinite(x) for x in (mu, nu_s)):
        raise ValueError("mu and nu_s must be positive and finite")
    if mu == 1.0 and nu_s == 1.0:
        return np.array(u, copy=True)
    out = mu * dilate(grid, rho, u, nu_s)
    tail = boundary_mass_fraction(grid, out)
    if tail > RESCALE_TAIL_TOL:
        raise ValueError(
            f"rescaled field escapes the grid: tail mass fraction {tail:.2e} "
            f"exceeds tolerance {RESCALE_TAIL_TOL:.1e}")
    return out


def hardy_ratio(u: np.ndarray, plan: TransformPlan) -> float | np.ndarray:
    """(int |u|^2/|x|^2) / (int |grad u|^2) <= (2/(d-2))^2 (Hardy).  Under the r^{-rho}
    envelope |u|^2 and r^2 |u'|^2 are both r^{d-3-2 rho} * smooth: one W sums both.
    A stack of fields on a leading axis gives one ratio per field, from one W."""
    u = _check_finite(u)
    g, rho = plan.grid, plan.params.rho
    W = class_weights(g, g.d - 3 - 2 * rho, rho)
    grad2 = np.sum(W * g.r**2 * np.abs(radial_derivative(g, rho, u))**2, axis=-1)
    if np.any(grad2 == 0.0) or not np.all(np.any(u, axis=-1)):
        raise ValueError("hardy_ratio requires a nonzero field with finite gradient")
    ratio = np.sum(W * np.abs(u)**2, axis=-1) / grad2
    return float(ratio) if ratio.ndim == 0 else ratio


def rearrange_decreasing(u: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Radially non-increasing rearrangement of |u|, equimeasurable in volume.

    The cells are volume atoms (volume omega * w_j, every w_j > 0).  The
    atoms, sorted by descending |u|^2, are poured into the cells in
    increasing-radius order: merging the cumulative volumes of the sorted
    atoms and of the cells cuts the volume axis into segments that each lie
    in one atom and one cell, and each cell's sample is the volume average of
    |u|^2 over its segments.  This conserves the discrete mass and yields a
    non-increasing profile.  Each cell's mass is a sum of its own segments'
    masses, never a difference of running mass totals, which would leave an
    absolute error of the total mass's round-off in the small tail values.
    """
    u = _check_finite(u)
    vals, vols = np.abs(u)**2, grid.w
    order = np.argsort(-vals, kind="stable")
    atoms, cells = np.cumsum(vols[order]), np.cumsum(vols)
    ends = np.union1d(atoms, cells)
    # the two totals may differ in the last bit: clip the final segment
    atom = np.minimum(np.searchsorted(atoms, ends), len(atoms) - 1)
    cell = np.minimum(np.searchsorted(cells, ends), len(cells) - 1)
    mass = np.bincount(cell, weights=np.diff(ends, prepend=0.0) * vals[order[atom]],
                       minlength=len(cells))
    return np.sqrt(mass / vols)
