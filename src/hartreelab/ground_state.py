"""Ground states Q of L_a Q + Q = (|.|^{-2} * Q^2) Q and the threshold M_gs.

The threshold M_gs = M(Q) = min J, with J(u) = M(u) H(u) / L_V(u) the
scale-invariant Weinstein quotient, is the same for every ground state, so the
solver only needs a positive Euler-Lagrange solution; that it minimizes J is
what gn_audit checks.  From a positive guess with the r^{-rho} origin envelope
the solve takes three steps:

1. Petviashvili start (V. I. Petviashvili, Sov. J. Plasma Phys. 2 (1976)
   257; D. E. Pelinovsky and Yu. A. Stepanyants, SIAM J. Numer. Anal. 42
   (2004) 1110) on the plan's mode coefficients c = Psi^T (w u), where
   L_a + 1 is the diagonal k^2 + 1: with u = Psi c and
   f = Psi^T (w Phi[u^2] u), c <- S^{3/2} f / (k^2 + 1) for
   S = sum (k^2 + 1) c^2 / (c . f), three n^2 products and no n x n array.
   It stops once |(k^2 + 1) c - f| < START_TOL |c|, the relative |F| by
   Parseval, or at START_CAP, and hands u to Newton either way.  S^{3/2}
   undoes the cube of the nonlinearity, so the guess's amplitude drops out,
   and every positive guess lands in Newton's basin: 4-17 iterates on the
   cases of tools/equivalence.py, and 5-22 from seeded multi-bump guesses,
   which all reach the same m_gs to 7.8e-16.  The default guess is
   r^{-rho} / cosh r.
2. Newton on F(u) = L_a u + u - Phi[u^2] u.  Newton converges
   quadratically and stops at its round-off floor, the first iterate whose
   |F| fails to halve: after 5 iterates on every case of
   tools/equivalence.py that solves.  NEWTON_CAP only bounds a solve that
   never reaches that floor.  Each step solves the Jacobian system by GMRES
   on the plan's mode coefficients, where L_a + 1 is the diagonal k^2 + 1
   and its inverse preconditions (`_newton_step`): 10-13 iterations of
   three n^2 products each, at every n and d measured, and no n x n array.
   At (3, -0.1, r_max 12), from the default guess on one BLAS thread, the
   Newton floor is 1.6e-13 / 5.8e-13 / 2.7e-12 at n = 256 / 512 / 1024,
   where a dense LU solve of the formed Jacobian left 5.4e-13 / 3.3e-12 /
   1.8e-11.
3. Balanced Pohozaev rescale.  The discrete functionals carry a small scaling
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
`hartree.potential`; a Newton iterate passes the L_a u it formed for F.  The
solve needs the plan and the kernel matrix, and evaluates no Bessel function:
it only applies their matrices.  The result records Q's mass fraction in the
outermost cells and the Pohozaev term of the Dirichlet wall,
P = omega r_max^d Q'(r_max)^2 / (4 M(Q)) with Q' from `grid.radial_derivative`
at the last node, and a solve that misses residual_tol names both, since
r_max can limit the residual: (6, 0, 256) misses 1e-5 with 5.0e-9 of M(Q)
there at r_max = 12 and meets it with 1.9e-10 at r_max = 14.  A wall at r_max
adds -2 P to the scaling anomaly 4(nu_final - 1): P = 6.9e-6 at (6, 0, 256,
r_max 12), where the anomaly is -1.4e-5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import RadialGrid, boundary_mass_fraction, radial_derivative
from .functionals import functionals
from .hartree import KernelMatrix, apply_kernel, potential
from .params import ModelParams
from .transform import TransformPlan, _forward, apply_la

GN_REL_TOL = 1e-6   # relative slack of the gn_audit check J(u) >= M_gs
START_TOL = 1e-2    # relative |F| at which the Petviashvili start hands over
START_CAP = 50      # most Petviashvili iterates of one solve
NEWTON_CAP = 10     # most Newton iterates of one solve
GMRES_TOL = 1e-14   # relative residual at which a Newton step's GMRES stops
GMRES_CAP = 60      # most GMRES iterations of one Newton step


class GroundStateError(RuntimeError):
    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace or []


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
    iterations: int
    trace: list  # (iteration, J) pairs
    newton_residuals: list  # relative |F| at each Newton iterate
    start_iterations: int   # Petviashvili iterates before Newton
    nu_final: float         # balanced Pohozaev factor; nu_final - 1 ~ anomaly / 4
    boundary_mass_fraction: float  # share of M(Q) in the outermost cells
    pohozaev_wall: float    # the wall's Pohozaev term P; anomaly ~ -2 P at r_max


def el_residual(Q: np.ndarray, plan: TransformPlan, km: KernelMatrix) -> float:
    """|| L_a Q + Q - Phi[Q^2] Q ||_{L^2} / || Q ||_{L^2} (discrete norms)."""
    Q = np.asarray(Q)
    if not np.all(np.isfinite(Q)):
        raise ValueError("field contains non-finite samples")
    Phi = potential(km, Q)
    F = apply_la(plan, Q) + Q - Phi * Q
    w = plan.grid.w
    return float(np.sqrt(np.sum(w * np.abs(F)**2) / np.sum(w * np.abs(Q)**2)))


def _newton_step(plan: TransformPlan, km: KernelMatrix, u: np.ndarray,
                 Phi: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, int]:
    """The Newton step x = Jac^{-1} F and its GMRES iterations, where
    Jac x = (L_a + 1) x - Phi x - 2 omega u Kw (u x) is F's Jacobian at u.

    GMRES (Saad and Schultz 1986) runs on the mode coefficients
    c = Psi^T (w x), where L_a + 1 is the diagonal k^2 + 1, left-preconditioned
    by its inverse: c -> c - (k^2 + 1)^{-1} Psi^T (w y) with
    y = Phi x + 2 omega u Kw (u x) and x = Psi c, three n^2 products and no
    n x n array.  Arnoldi orthogonalizes by classical Gram-Schmidt, twice;
    Givens rotations of the Hessenberg column give the residual, and the
    iteration stops once it is GMRES_TOL of the preconditioned right-hand
    side, or at GMRES_CAP.
    """
    dinv = 1 / (plan.k**2 + 1)
    b = dinv * _forward(plan, F)
    beta = np.linalg.norm(b)
    V = np.empty((GMRES_CAP + 1, len(b)))     # orthonormal Krylov basis
    R = np.zeros((GMRES_CAP, GMRES_CAP))      # rotated Hessenberg triangle
    g = np.zeros(GMRES_CAP + 1)               # rotated beta e_1
    g[0] = beta
    rot = []                                  # (cos, sin) of each Givens rotation
    V[0] = b / beta
    for j in range(GMRES_CAP):
        x = plan.Psi @ V[j]
        y = Phi * x + 2 * km.omega * u * apply_kernel(km, u * x)
        v = V[j] - dinv * _forward(plan, y)
        h = np.zeros(j + 2)
        for _ in range(2):
            hj = V[:j + 1] @ v
            v -= hj @ V[:j + 1]
            h[:j + 1] += hj
        h[j + 1] = np.linalg.norm(v)
        for i, (c, s) in enumerate(rot):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
        rho = math.hypot(h[j], h[j + 1])
        c, s = h[j] / rho, h[j + 1] / rho
        rot.append((c, s))
        R[:j, j], R[j, j] = h[:j], rho
        g[j], g[j + 1] = c * g[j], -s * g[j]
        if abs(g[j + 1]) <= GMRES_TOL * beta:
            break
        V[j + 1] = v / h[j + 1]
    m = j + 1
    y = np.linalg.solve(R[:m, :m], g[:m])
    return plan.Psi @ (y @ V[:m]), m


def solve_ground_state(params: ModelParams, grid: RadialGrid,
                       plan: TransformPlan, km: KernelMatrix,
                       opts: GroundStateOptions | None = None,
                       init: np.ndarray | None = None) -> GroundStateResult:
    opts = opts or GroundStateOptions()
    u = np.array(init, dtype=float) if init is not None else \
        grid.r**(-params.rho) / np.cosh(grid.r)
    if np.any(u < 0) or not np.any(u > 0):
        raise ValueError("initial guess must be non-negative and nonzero")

    q = functionals(u, plan, km)
    if q.L_V <= 0 or q.M <= 0:
        raise GroundStateError("initial guess has vanishing mass or L_V")

    # Petviashvili on the modes into Newton's basin, then Newton
    c = _forward(plan, u)
    d = plan.k**2 + 1
    for start in range(START_CAP):
        u = plan.Psi @ c
        f = _forward(plan, potential(km, u) * u)
        if np.linalg.norm(d * c - f) < START_TOL * np.linalg.norm(c):
            break
        c = (np.sum(d * c**2) / (c @ f))**1.5 * f / d
    trace: list = []
    newton: list = []
    for it in range(NEWTON_CAP):
        Phi = potential(km, u)
        Lau = apply_la(plan, u)
        F = Lau + u - Phi * u
        newton.append(float(np.sqrt(np.sum(grid.w * F**2) / np.sum(grid.w * u**2))))
        q = functionals(u, plan, km, Lau)
        trace.append((it + 1, q.J))
        if it and newton[-1] > 0.5 * newton[-2]:
            break                         # round-off floor: |F| no longer halves
        u = u - _newton_step(plan, km, u, Phi, F)[0]
    else:                                 # the cap: u moved after its last M, H
        q = functionals(u, plan, km)
    iterations = it + 1

    # balanced Pohozaev rescale: half-step dilation splits the scaling anomaly
    # between the residual and |M - H|; the amplitude makes M = L_V exact
    nu_final = (q.M / q.H)**0.25
    v = u + math.log(nu_final) * grid.r * radial_derivative(grid, params.rho, u)
    qv = functionals(v, plan, km)
    Q = math.sqrt(qv.M / qv.L_V) * v
    Q = np.where(np.abs(Q) < 1e-300, 0.0, Q)
    qQ = functionals(Q, plan, km)
    m_gs = qQ.J
    trace.append((iterations + 1, m_gs))
    residual = el_residual(Q, plan, km)
    boundary = boundary_mass_fraction(grid, Q)
    wall = km.omega * grid.r_max**params.d \
        * radial_derivative(grid, params.rho, Q)[-1]**2 / (4 * qQ.M)
    if residual > opts.residual_tol:
        raise GroundStateError(
            f"solver did not reach residual {opts.residual_tol:.1e} "
            f"(got {residual:.2e}) after {iterations} Newton iterations; "
            f"boundary mass fraction {boundary:.1e}, "
            f"Pohozaev wall term {wall:.1e}", trace)
    if np.min(Q) < -1e-12:
        raise GroundStateError(
            f"ground state has negative samples (min {np.min(Q):.2e})", trace)
    return GroundStateResult(Q=Q, m_gs=m_gs, residual=residual,
                             iterations=iterations, trace=trace,
                             newton_residuals=newton, start_iterations=start + 1,
                             nu_final=nu_final, boundary_mass_fraction=boundary,
                             pohozaev_wall=wall)


@dataclass
class GNAuditEntry:
    J: float | None
    violation: bool


@dataclass
class GNAuditReport:
    entries: list
    violations: int


def gn_audit(fields, m_gs: float, plan: TransformPlan,
             km: KernelMatrix) -> GNAuditReport:
    """Check J(u) >= M_gs (1 - GN_REL_TOL) for each field (sharp GN inequality)."""
    entries = []
    nviol = 0
    for u in fields:
        J = functionals(u, plan, km).J
        if J is None:                     # L_V <= 0
            entries.append(GNAuditEntry(J=None, violation=False))
            continue
        bad = J < m_gs * (1 - GN_REL_TOL)
        nviol += bad
        entries.append(GNAuditEntry(J=J, violation=bool(bad)))
    return GNAuditReport(entries=entries, violations=nviol)


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
    """Returns (header dict, r array, Q array)."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    head = lines[0].split()
    meta = {"d": int(head[0]), "a": float(head[1]), "n": int(head[2]),
            "r_max": float(head[3]), "m_gs": float(head[4]), "residual": float(head[5])}
    data = np.array([[float(x) for x in ln.split()] for ln in lines[1:]])
    return meta, data[:, 0], data[:, 1]
