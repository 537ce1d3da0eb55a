"""Ground states Q of L_a Q + Q = (|.|^{-2} * Q^2) Q and the threshold M_gs.

The threshold M_gs = M(Q) = min J, with J(u) = M(u) H(u) / L_V(u) the
scale-invariant Weinstein quotient, is the same for every ground state, so the
solver only needs a positive Euler-Lagrange solution; that it minimizes J is
what gn_audit checks.  From a positive guess with the r^{-rho} origin envelope
the solve takes two steps:

1. Petviashvili's iteration (V. I. Petviashvili, Sov. J. Plasma Phys. 2
   (1976) 257; D. E. Pelinovsky and Yu. A. Stepanyants, SIAM J. Numer. Anal.
   42 (2004) 1110) on the plan's mode coefficients c = Psi^T (w u), where
   L_a + 1 is the diagonal k^2 + 1: with u = Psi c and
   f = Psi^T (w Phi[u^2] u), c <- S^{3/2} f / (k^2 + 1) for
   S = sum (k^2 + 1) c^2 / (c . f), three n^2 products and no n x n array.
   It stops once |(k^2 + 1) c - f| < TOL |c|, the relative |F| of
   F(u) = L_a u + u - Phi[u^2] u by Parseval, or at CAP, and the final
   residual gate decides either way.  S^{3/2} undoes the cube of the
   nonlinearity, so the guess's amplitude drops out.  The plain update
   c <- G(c) converges only linearly (|F| falls by 0.54-0.79 per iterate
   for d = 3-7), so each step is Anderson-mixed at depth DEPTH = 3
   (D. G. Anderson, J. ACM 12 (1965) 547; H. F. Walker and P. Ni, SIAM J.
   Numer. Anal. 49 (2011) 1715): from the last four G(c) and updates
   g = G(c) - c, the step goes to G(c) - sum gamma_j dG_j, with gamma the
   least-squares fit of the newest g by the <= 3 differences dg_j.  Every
   solve of tools/equivalence.py reaches TOL in 14-23 iterates (48-121
   plain; 14-16 at d = 3, n = 512), and seeded multi-bump guesses reach the
   same m_gs to 1.1e-15 in 16-29.  TOL sits about 500 times above the
   ~1e-16 round-off floor of the modal residual.  The default guess is
   r^{-rho} / cosh r.
2. Balanced Pohozaev rescale.  The discrete functionals carry a small scaling
   anomaly delta = (M - H)/M at the unit-coefficient solution (quadrature
   error of the singular class r^{-rho} near the origin; it shrinks with
   resolution).  A full rescale to M = H = L_V pushes the whole anomaly into
   the Euler-Lagrange residual, while skipping it pushes it all into the
   Pohozaev defect.  Instead the final step takes a half-step dilation
   nu = (M/H)^{1/4} = 1 + delta/4 + ... followed by the exact amplitude
   mu = sqrt(M/L_V) (which enforces M = L_V to round-off), splitting the
   anomaly evenly: the returned Q has Euler-Lagrange residual and |M - H|
   both ~delta/2, and M = L_V exactly.  Since nu - 1 is tiny (2e-9 at n = 1024
   to 1.4e-6 at n = 512, a = -0.2), the dilation is one first-order step
   u + ln(nu) r u_r, with u_r from `grid.radial_derivative` (the cell
   stencils applied to the regular part r^rho u); the dropped term is
   O((nu - 1)^2).  J (hence m_gs) is invariant under the whole scaling family.

Every M, H, L_V and J comes from `functionals` and every Phi from
`hartree.potential`.  The solve needs the plan and the kernel matrix, and
evaluates no Bessel function: it only applies their matrices.  The result
records Q's mass fraction in the outermost cells and the Pohozaev term of
the Dirichlet wall, P = omega r_max^d Q'(r_max)^2 / (4 M(Q)) with Q' from
`grid.radial_derivative` at the last node, and a solve that misses
residual_tol names both, since r_max can limit the residual: (6, 0, 256)
misses 1e-5 with 5.0e-9 of M(Q) there at r_max = 12 and meets it with
1.9e-10 at r_max = 14.  A wall at r_max adds -2 P to the scaling anomaly
4(nu_final - 1): P = 6.9e-6 at (6, 0, 256, r_max 12), where the anomaly is
-1.4e-5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import RadialGrid, boundary_mass_fraction, radial_derivative
from .functionals import _check_finite, functionals
from .hartree import KernelMatrix, potential
from .params import ModelParams
from .transform import TransformPlan, _forward, apply_la

GN_REL_TOL = 1e-6   # relative slack of the gn_audit check J(u) >= M_gs
TOL = 1e-13         # relative |F| at which Petviashvili's iteration stops
CAP = 100           # most Petviashvili iterates of one solve
DEPTH = 3           # Anderson mixing depth: difference columns kept


class GroundStateError(RuntimeError):
    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals or []


@dataclass
class GroundStateOptions:
    residual_tol: float = 1e-5   # final Euler-Lagrange residual demanded

    def __post_init__(self):
        """Raises ValueError naming the failing field."""
        if not 0 < self.residual_tol < math.inf:
            raise ValueError(f"residual_tol must be positive and finite, "
                             f"got {self.residual_tol!r}")


@dataclass
class GroundStateResult:
    Q: np.ndarray
    m_gs: float
    residual: float
    iterations: int         # Petviashvili iterates, len(residuals)
    residuals: list         # relative |F| at each iterate
    nu_final: float         # balanced Pohozaev factor; nu_final - 1 ~ anomaly / 4
    boundary_mass_fraction: float  # share of M(Q) in the outermost cells
    pohozaev_wall: float    # the wall's Pohozaev term P; anomaly ~ -2 P at r_max


def el_residual(Q: np.ndarray, plan: TransformPlan, km: KernelMatrix) -> float:
    """|| L_a Q + Q - Phi[Q^2] Q ||_{L^2} / || Q ||_{L^2} (discrete norms)."""
    Q = _check_finite(Q)
    Phi = potential(km, Q)
    F = apply_la(plan, Q) + Q - Phi * Q
    w = plan.grid.w
    return float(np.sqrt(np.sum(w * np.abs(F)**2) / np.sum(w * np.abs(Q)**2)))


def solve_ground_state(params: ModelParams, grid: RadialGrid,
                       plan: TransformPlan, km: KernelMatrix,
                       opts: GroundStateOptions | None = None,
                       init: np.ndarray | None = None) -> GroundStateResult:
    opts = opts or GroundStateOptions()
    u = np.array(init, dtype=float) if init is not None else \
        grid.r**(-params.rho) / np.cosh(grid.r)
    if np.any(u < 0) or not np.any(u > 0):
        raise ValueError("initial guess must be non-negative and nonzero")

    # Petviashvili's iteration on the modes, Anderson-mixed; by Parseval the
    # ratio is |F| / |u|
    c = _forward(plan, u)
    d = plan.k**2 + 1
    residuals: list = []
    Gs: list = []                         # the last DEPTH + 1 maps G(c)
    gs: list = []                         # and their updates G(c) - c
    for _ in range(CAP):
        u = plan.Psi @ c
        f = _forward(plan, potential(km, u) * u)
        residuals.append(float(np.linalg.norm(d * c - f) / np.linalg.norm(c)))
        if residuals[-1] < TOL:
            break
        cf = c @ f
        if not cf > 0:                    # c . f = 4 L_V / omega, or NaN
            raise GroundStateError(f"iterate {len(residuals)}: c . f = "
                                   f"{cf:.2e} is not positive", residuals)
        G = (np.sum(d * c**2) / cf)**1.5 * f / d
        Gs, gs = Gs[-DEPTH:] + [G], gs[-DEPTH:] + [G - c]
        c = G
        if len(Gs) > 1:                   # least squares on the differences
            gamma = np.linalg.lstsq(np.diff(gs, axis=0).T, gs[-1], rcond=None)[0]
            c = G - gamma @ np.diff(Gs, axis=0)
    iterations = len(residuals)
    q = functionals(u, plan, km)

    # balanced Pohozaev rescale: half-step dilation splits the scaling anomaly
    # between the residual and |M - H|; the amplitude makes M = L_V exact
    nu_final = (q.M / q.H)**0.25
    v = u + math.log(nu_final) * grid.r * radial_derivative(grid, params.rho, u)
    qv = functionals(v, plan, km)
    Q = math.sqrt(qv.M / qv.L_V) * v
    Q = np.where(np.abs(Q) < 1e-300, 0.0, Q)
    qQ = functionals(Q, plan, km)
    m_gs = qQ.J
    residual = el_residual(Q, plan, km)
    boundary = boundary_mass_fraction(grid, Q)
    wall = km.omega * grid.r_max**params.d \
        * radial_derivative(grid, params.rho, Q)[-1]**2 / (4 * qQ.M)
    if residual > opts.residual_tol:
        raise GroundStateError(
            f"solver did not reach residual {opts.residual_tol:.1e} "
            f"(got {residual:.2e}) after {iterations} iterations; "
            f"boundary mass fraction {boundary:.1e}, "
            f"Pohozaev wall term {wall:.1e}", residuals)
    if np.min(Q) < -1e-12:
        raise GroundStateError(
            f"ground state has negative samples (min {np.min(Q):.2e})", residuals)
    return GroundStateResult(Q=Q, m_gs=m_gs, residual=residual,
                             iterations=iterations, residuals=residuals,
                             nu_final=nu_final, boundary_mass_fraction=boundary,
                             pohozaev_wall=wall)


def gn_audit(fields, m_gs: float, plan: TransformPlan, km: KernelMatrix) -> int:
    """How many fields break J(u) >= M_gs (1 - GN_REL_TOL), the sharp GN
    inequality; a field with L_V <= 0 has no J and breaks nothing."""
    Js = (functionals(u, plan, km).J for u in fields)
    return sum(J is not None and J < m_gs * (1 - GN_REL_TOL) for J in Js)


def save_ground_state(path, result: GroundStateResult, params: ModelParams,
                      grid: RadialGrid) -> None:
    """Text format: header line `d a n r_max M_gs residual`, then `r_j Q_j` rows."""
    with open(path, "w") as fh:
        fh.write("# hartreelab ground state\n")
        fh.write("# d a n r_max M_gs residual\n")
        fh.write(f"{params.d} {params.a!r} {grid.n} {grid.r_max!r} "
                 f"{result.m_gs!r} {result.residual!r}\n")
        for rj, qj in zip(grid.r, result.Q):
            fh.write(f"{float(rj)!r} {float(qj)!r}\n")


def load_ground_state(path):
    """Returns (header dict, r array, Q array) of a file of the header's n rows;
    a file without that header or those finite rows raises ValueError naming
    it."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"field file {path!r}: no header line `d a n r_max M_gs residual`")
    try:
        d, a, n, r_max, m_gs, residual = lines[0]
        meta = {"d": int(d), "a": float(a), "n": int(n), "r_max": float(r_max),
                "m_gs": float(m_gs), "residual": float(residual)}
    except ValueError:
        raise ValueError(f"field file {path!r}: header {' '.join(lines[0])!r} is not "
                         f"the six numbers `d a n r_max M_gs residual`") from None
    if len(lines) - 1 != meta["n"]:
        raise ValueError(f"field file {path!r}: header n = {meta['n']} but "
                         f"{len(lines) - 1} data rows")
    try:
        data = np.array([[float(r), float(q)] for r, q in lines[1:]]).reshape(-1, 2)
    except ValueError:
        raise ValueError(f"field file {path!r}: a data row is not the two numbers `r Q`") from None
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise ValueError(f"field file {path!r}: data row {bad[0] + 1} "
                         f"{' '.join(lines[bad[0] + 1])!r} is not finite")
    return meta, data[:, 0], data[:, 1]
