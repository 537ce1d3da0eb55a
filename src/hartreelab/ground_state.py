"""Ground states Q of L_a Q + Q = (|.|^{-2} * Q^2) Q and the threshold M_gs.

The solver minimizes the scale-invariant Weinstein quotient
J(u) = M(u) H(u) / L_V(u) in three phases:

1. Preconditioned J-descent: steps along the scale-invariant J-gradient,
   preconditioned by (k^2 + H/M)^{-1} and rescaled to the norm of the
   iterate, accepted only if J decreases (adaptive step, halved on increase),
   with projection of negative samples to zero.  The iterate is never
   renormalized: the step is amplitude-equivariant (u -> c u maps every
   iterate to c times itself), and phase 2 fixes the scale anyway.  A stalled
   line search ends the descent.
2. Newton polish: once the descent residual is small, the iterate is rescaled
   to the unit-coefficient Euler-Lagrange form and refined by a dense Newton
   iteration on F(u) = L_a u + u - Phi[u^2] u, which converges quadratically
   to round-off.
3. Balanced Pohozaev rescale.  The discrete functionals carry a small scaling
   anomaly delta = (M - H)/M at the unit-coefficient solution (quadrature
   error of the singular class r^{-rho} near the origin; it shrinks with
   resolution).  A full rescale to M = H = L_V pushes the whole anomaly into
   the Euler-Lagrange residual, while skipping it pushes it all into the
   Pohozaev defect.  Instead the final step takes a half-step dilation
   nu_s = (M/H)^{1/4} followed by the exact amplitude mu = sqrt(M/L_V) (which
   enforces M = L_V to round-off), splitting the anomaly evenly: the returned
   Q has Euler-Lagrange residual and |M - H| both ~delta/2, and M = L_V
   exactly.  J (hence m_gs) is invariant under the whole scaling family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import RadialGrid, build_grid
from .hartree import KernelMatrix, build_kernel, potential
from .params import ModelParams
from .transform import (TransformPlan, apply_la, build_plan, la_matrix,
                        resample, transform_forward, transform_inverse)


class GroundStateError(RuntimeError):
    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace or []


@dataclass
class GroundStateOptions:
    step0: float = 1e-2          # initial descent step (adaptive, halved on J increase)
    max_iter: int = 500          # descent iteration budget
    descent_tol: float = 1e-4    # residual at which the Newton polish takes over
    newton_iters: int = 10
    residual_tol: float = 1e-5   # final Euler-Lagrange residual demanded
    guess: str = "gaussian"      # "gaussian" | "sech", or pass init= explicitly

    def __post_init__(self):
        for name in ("step0", "descent_tol", "residual_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)!r}")
        if self.max_iter < 0:      # 0 is a working setting: Newton from the guess
            raise ValueError(f"max_iter must be >= 0, got {self.max_iter!r}")
        if self.newton_iters < 1:
            raise ValueError(f"newton_iters must be >= 1, got {self.newton_iters!r}")
        if self.guess not in ("gaussian", "sech"):
            raise ValueError(f"unknown initial guess kind {self.guess!r}")


@dataclass
class GroundStateResult:
    Q: np.ndarray
    m_gs: float
    residual: float
    iterations: int
    trace: list  # (iteration, J) pairs


def initial_guess(params: ModelParams, grid: RadialGrid, kind: str) -> np.ndarray:
    """Positive guess with the known r^{-rho} origin envelope."""
    r = grid.r
    env = r**(-params.rho)
    if kind == "gaussian":
        return env * np.exp(-r**2 / 2)
    if kind == "sech":
        return env / np.cosh(r)
    raise ValueError(f"unknown initial guess kind {kind!r}")


def _quantities(plan, km, u):
    w, om = plan.grid.w, km.omega
    f = np.abs(u)**2
    M = 0.5 * om * float(np.sum(w * f))
    Lau = apply_la(plan, u)
    H = 0.5 * om * float(np.real(np.sum(w * np.conj(u) * Lau)))
    Phi = km.omega * (km.Kw @ f)
    LV = 0.25 * om * float(np.sum(w * Phi * f))
    return M, H, LV, Phi, Lau


def el_residual(Q: np.ndarray, plan: TransformPlan, km: KernelMatrix) -> float:
    """|| L_a Q + Q - Phi[Q^2] Q ||_{L^2} / || Q ||_{L^2} (discrete norms)."""
    Q = np.asarray(Q)
    if not np.all(np.isfinite(Q)):
        raise ValueError("field contains non-finite samples")
    Phi = potential(km, Q)
    F = apply_la(plan, Q) + Q - Phi * Q
    w = plan.grid.w
    return float(np.sqrt(np.sum(w * np.abs(F)**2) / np.sum(w * np.abs(Q)**2)))


def solve_ground_state(params: ModelParams, grid: RadialGrid,
                       plan: TransformPlan | None = None,
                       km: KernelMatrix | None = None,
                       opts: GroundStateOptions | None = None,
                       init: np.ndarray | None = None) -> GroundStateResult:
    opts = opts or GroundStateOptions()
    plan = plan or build_plan(params, grid)
    km = km or build_kernel(grid, params)
    u = np.array(init, dtype=float) if init is not None else \
        initial_guess(params, grid, opts.guess)
    if np.any(u < 0) or not np.any(u > 0):
        raise ValueError("initial guess must be non-negative and nonzero")

    trace: list = []
    M, H, LV, Phi, Lau = _quantities(plan, km, u)
    if LV <= 0 or M <= 0:
        raise GroundStateError("initial guess has vanishing mass or L_V", trace)
    M0 = M
    J = M * H / LV
    tau = opts.step0
    it = 0
    for it in range(1, opts.max_iter + 1):
        # scale-invariant J-gradient
        g = (H / LV) * u + (M / LV) * Lau - (M * H / LV**2) * Phi * u
        z = transform_inverse(plan, transform_forward(plan, g) / (plan.k**2 + H / M))
        zn = float(np.sqrt(np.sum(plan.grid.w * z**2)))
        un_norm = float(np.sqrt(np.sum(plan.grid.w * u**2)))
        if zn > 0:
            z *= un_norm / zn
        for _ in range(30):
            un = np.maximum(u - tau * z, 0.0)
            Mn, Hn, LVn, Phin, Laun = _quantities(plan, km, un)
            if LVn > 0 and Mn > 0 and Mn * Hn / LVn < J:
                break
            tau *= 0.5
        else:
            break                         # line search stalled
        u, M, H, LV, Phi, Lau = un, Mn, Hn, LVn, Phin, Laun
        J = M * H / LV
        trace.append((it, J))
        tau = min(tau * 1.5, 1.0)
        alpha, beta = H / M, H / LV
        res = Lau + alpha * u - beta * Phi * u
        resn = float(np.sqrt(np.sum(plan.grid.w * res**2) /
                             np.sum(plan.grid.w * u**2))) / alpha
        if resn < opts.descent_tol:
            break

    if LV <= 0 or M <= 1e-12 * M0:
        raise GroundStateError("descent collapsed to the zero field", trace)

    # Newton polish on the unit-coefficient Euler-Lagrange equation
    alpha, beta = H / M, H / LV
    nu_s = 1.0 / math.sqrt(alpha)
    mu = math.sqrt(beta) * nu_s**(params.d / 2)
    u = mu * resample(plan, u, nu_s)
    La = la_matrix(plan)
    eye = np.eye(grid.n)
    for jt in range(opts.newton_iters):
        f = u * u
        Phi = km.omega * (km.Kw @ f)
        F = La @ u + u - Phi * u
        resn = float(np.sqrt(np.sum(grid.w * F**2) / np.sum(grid.w * u**2)))
        M, H, LV, _, _ = _quantities(plan, km, u)
        trace.append((it + jt + 1, M * H / LV))
        if resn < 1e-12:
            break
        Jac = La + eye - np.diag(Phi) - 2 * km.omega * (u[:, None] * km.Kw * u[None, :])
        u = u - np.linalg.solve(Jac, F)
    iterations = it + jt + 1

    # balanced Pohozaev rescale: half-step dilation splits the scaling anomaly
    # between the residual and |M - H|; the amplitude makes M = L_V exact
    M, H, LV, _, _ = _quantities(plan, km, u)
    v = resample(plan, u, (M / H)**0.25)
    Mv, _, LVv, _, _ = _quantities(plan, km, v)
    Q = math.sqrt(Mv / LVv) * v
    Q = np.where(np.abs(Q) < 1e-300, 0.0, Q)
    M, H, LV, _, _ = _quantities(plan, km, Q)
    m_gs = M * H / LV
    trace.append((iterations + 1, m_gs))
    residual = el_residual(Q, plan, km)
    if residual > opts.residual_tol:
        raise GroundStateError(
            f"solver did not reach residual {opts.residual_tol:.1e} "
            f"(got {residual:.2e}) within {opts.max_iter} descent iterations", trace)
    if np.min(Q) < -1e-12:
        raise GroundStateError(f"minimizer has negative samples (min {np.min(Q):.2e})", trace)
    return GroundStateResult(Q=Q, m_gs=m_gs, residual=residual,
                             iterations=iterations, trace=trace)


@dataclass
class GNAuditEntry:
    J: float | None
    violation: bool


@dataclass
class GNAuditReport:
    entries: list
    violations: int


def gn_audit(fields, m_gs: float, plan: TransformPlan, km: KernelMatrix,
             rel_tol: float = 1e-6) -> GNAuditReport:
    """Check J(u) >= M_gs (1 - rel_tol) for each field (sharp GN inequality)."""
    entries = []
    nviol = 0
    for u in fields:
        M, H, LV, _, _ = _quantities(plan, km, u)
        if LV <= 0:
            entries.append(GNAuditEntry(J=None, violation=False))
            continue
        J = M * H / LV
        bad = J < m_gs * (1 - rel_tol)
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
