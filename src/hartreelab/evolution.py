"""Time integration and blow-up diagnostics.

Sign convention (fixed once by requiring that e^{-it} Q be a discrete
near-solution for the ground state Q of L_a Q + Q = Phi[Q^2] Q):

    i du/dt = -L_a u + Phi[|u|^2] u,

so the linear flow multiplies spectral mode m by e^{+i k_m^2 t} and the
nonlinear substep is the exact phase rotation u -> e^{-i Phi dt} u (Phi is
real and |u| is invariant, so the rotation is exact and conserves mass to
round-off).

Schemes: `strang-split` (half nonlinear, full linear, half nonlinear;
second order) and `midpoint-relaxation` (the nonlinear potential frozen at a
fixed-point approximation of its midpoint value, wrapped around the same
exact linear flow; also second order).

Diagnostics follow the virial machinery: Gamma = int |x|^2 |u|^2,
Gamma' = -4 Im int conj(u) (x . grad u), and for this equation
Gamma'' = 16 E along solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .functionals import Quantities, functionals
from .hartree import KernelMatrix, potential, surface_area
from .transform import (TransformPlan, radial_derivative, resample,
                        transform_forward, transform_inverse)


@dataclass
class IntegratorConfig:
    dt: float
    t_end: float
    scheme: str = "strang-split"      # or "midpoint-relaxation"
    output_stride: int = 10
    h_threshold: float = np.inf       # stop when H exceeds this
    min_scale_cells: float = 4.0      # stop when 1/sqrt(H) < this many cells
    store_fields: bool = True

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.scheme not in ("strang-split", "midpoint-relaxation"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.output_stride < 1:
            raise ValueError("output stride must be >= 1")
        if self.min_scale_cells <= 0 or self.h_threshold <= 0:
            raise ValueError("blow-up stop thresholds must be positive")


@dataclass
class VirialResult:
    gamma: float
    gamma_prime: float
    boundary_flag: bool


@dataclass
class Trajectory:
    times: list = field(default_factory=list)
    quantities: list = field(default_factory=list)   # Quantities per sample
    gamma: list = field(default_factory=list)
    gamma_prime: list = field(default_factory=list)
    fields: list = field(default_factory=list)        # snapshots (optional)
    stop_reason: str = "completed"
    stop_time: float = 0.0


def linear_flow(u: np.ndarray, dt: float, plan: TransformPlan) -> np.ndarray:
    """Exact linear propagator e^{+i t L_a} u on the discrete operator.

    The diagonal flow in the orthonormal mode basis is unitary in the
    quadrature inner product, so it conserves the discrete mass and the
    discrete H to round-off per step.
    """
    c = transform_forward(plan, u)
    return transform_inverse(plan, np.exp(1j * plan.k**2 * dt) * c)


def step(u: np.ndarray, dt: float, plan: TransformPlan, km: KernelMatrix,
         scheme: str = "strang-split") -> np.ndarray:
    """One time step; mass is conserved to round-off by construction."""
    if scheme == "strang-split":
        u = u * np.exp(-0.5j * dt * potential(km, u))
        u = linear_flow(u, dt, plan)
        return u * np.exp(-0.5j * dt * potential(km, u))
    if scheme == "midpoint-relaxation":
        # freeze the potential at a fixed-point approximation of its midpoint
        # value: iterate v_half = L(dt/2) e^{-i Phi dt/2} u, Phi = Phi[|v_half|^2]
        Phi = potential(km, u)
        for _ in range(2):
            v = linear_flow(u * np.exp(-0.5j * dt * Phi), 0.5 * dt, plan)
            Phi = potential(km, v)
        u = linear_flow(u * np.exp(-0.5j * dt * Phi), dt, plan)
        return u * np.exp(-0.5j * dt * Phi)
    raise ValueError(f"unknown scheme {scheme!r}")


def virial(u: np.ndarray, plan: TransformPlan,
           boundary_tol: float = 1e-8) -> VirialResult:
    """Gamma = int |x|^2 |u|^2 and Gamma' = -4 Im int conj(u) (x . grad u).

    The boundary flag is raised when the relative mass in the outermost cells
    exceeds `boundary_tol` (the truncated variance is then untrustworthy).
    """
    g = plan.grid
    om = surface_area(g.d)
    f = np.abs(u)**2
    gamma = om * float(np.sum(g.w * g.r**2 * f))
    du = radial_derivative(plan, u)
    gamma_p = -4 * om * float(np.sum(g.w * g.r * np.imag(np.conj(u) * du)))
    total = float(np.sum(g.w * f))
    tail = float(np.sum(g.w[-5:] * f[-5:]))
    flag = bool(total > 0 and tail / total > boundary_tol)
    return VirialResult(gamma=gamma, gamma_prime=gamma_p, boundary_flag=flag)


def evolve(u0: np.ndarray, cfg: IntegratorConfig, plan: TransformPlan,
           km: KernelMatrix) -> Trajectory:
    """Integrate to t_end or to a blow-up stop event; records the stop reason."""
    u = np.asarray(u0, dtype=complex)
    traj = Trajectory()
    h = plan.grid.h
    nsteps = int(round(cfg.t_end / cfg.dt))
    t = 0.0

    def record(tcur, ucur):
        q = functionals(ucur, plan, km)
        v = virial(ucur, plan)
        traj.times.append(tcur)
        traj.quantities.append(q)
        traj.gamma.append(v.gamma)
        traj.gamma_prime.append(v.gamma_prime)
        if cfg.store_fields:
            traj.fields.append(ucur.copy())
        return q

    q = record(t, u)
    for i in range(1, nsteps + 1):
        u = step(u, cfg.dt, plan, km, cfg.scheme)
        t = i * cfg.dt
        if not np.all(np.isfinite(u)):
            traj.stop_reason = "blowup-suspected"
            traj.stop_time = t
            return traj
        if i % cfg.output_stride == 0 or i == nsteps:
            q = record(t, u)
            if q.H > cfg.h_threshold:
                traj.stop_reason = "h-threshold"
                traj.stop_time = t
                return traj
            if q.H > 0 and 1.0 / math.sqrt(q.H) < cfg.min_scale_cells * h:
                traj.stop_reason = "blowup-resolved-limit"
                traj.stop_time = t
                return traj
    traj.stop_reason = "completed"
    traj.stop_time = t
    return traj


def pseudo_conformal_family(Q: np.ndarray, T_star: float, theta: float,
                            t: float, plan: TransformPlan) -> np.ndarray:
    """Minimal-mass blow-up snapshot at time t built from the ground state Q.

    With s = T_star - t and lam0 = 1/T_star (so the scale is 1 at t = 0):

        u(t, x) = e^{i theta} e^{-i/(lam0^2 s)} (lam0 s)^{-d/2}
                  Q(x/(lam0 s)) e^{i |x|^2/(4 s)},

    an exact solution of the evolution convention used here, blowing up at
    T_star with Gamma(t) = 8 E(u(0)) (T_star - t)^2.  The internal phase
    e^{-i/(lam0^2 s)} (the transported e^{-it} phase of the solitary wave) was
    fixed by the evolution-consistency oracle in the test suite.
    """
    if not (0 <= t < T_star):
        raise ValueError(f"need 0 <= t < T_star, got t={t}, T_star={T_star}")
    d = plan.params.d
    lam0 = 1.0 / T_star
    s = T_star - t
    scale = lam0 * s
    prof = resample(plan, Q, 1.0 / scale) * scale**(-d / 2)
    r = plan.grid.r
    return prof * np.exp(1j * (theta - 1.0 / (lam0**2 * s) + r**2 / (4 * s)))


class FitRejected(RuntimeError):
    pass


def fit_blowup(traj: Trajectory, min_samples: int = 10):
    """Fit H(t) = C (T*-t)^{-p}; returns (T_star_est, rate_exponent).

    Uses the growing tail of H; the location of the pole is found by a scalar
    search minimizing the residual of the log-log linear fit.  Rejects
    trajectories whose H tail is not monotonically growing.  The fit window is
    the last decade of H: near the pole H ~ C (T*-t)^{-2} + O(1) (the energy
    is conserved, so an additive E-sized offset always rides on the power
    law), and earlier samples would bias the measured exponent low.
    """
    t = np.asarray(traj.times)
    Hs = np.array([q.H for q in traj.quantities])
    # growing tail: from the last local minimum of H onward
    imin = int(np.argmin(Hs))
    t, Hs = t[imin:], Hs[imin:]
    if len(t) < min_samples:
        raise FitRejected(f"need >= {min_samples} growing samples, got {len(t)}")
    if np.any(np.diff(Hs) <= 0):
        raise FitRejected("H tail is not monotonically growing")
    decade = Hs >= Hs[-1] / 10.0
    if int(np.sum(decade)) >= min_samples:
        t, Hs = t[decade], Hs[decade]

    logH = np.log(Hs)

    def sse(T):
        x = np.log(T - t)
        A = np.vstack([x, np.ones_like(x)]).T
        coef, res2, *_ = np.linalg.lstsq(A, logH, rcond=None)
        return (res2[0] if len(res2) else 0.0), coef

    # bracket T* in (t_last, t_last + span] and golden-section the fit error
    span = t[-1] - t[0]
    lo = t[-1] + 1e-12 * max(1.0, span)
    hi = t[-1] + 2 * span
    gr = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c1 = b - gr * (b - a)
    c2 = a + gr * (b - a)
    f1, f2 = sse(c1)[0], sse(c2)[0]
    for _ in range(200):
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - gr * (b - a)
            f1 = sse(c1)[0]
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + gr * (b - a)
            f2 = sse(c2)[0]
        if b - a < 1e-12 * max(1.0, b):
            break
    T_star = 0.5 * (a + b)
    _, coef = sse(T_star)
    p = -coef[0]
    return float(T_star), float(p)


def concentration(u: np.ndarray, lam: float, grid) -> float:
    """(1/2) int_{|x| <= lam} |u|^2, with the cell containing lam counted
    fractionally (by the volume fraction (lam^d - lo^d)/(hi^d - lo^d))."""
    if lam <= 0:
        return 0.0
    om = surface_area(grid.d)
    f = np.abs(u)**2
    if lam >= grid.r_max:
        return 0.5 * om * float(np.sum(grid.w * f))
    c = int(np.searchsorted(grid.edges, lam) - 1)
    acc = float(np.sum(grid.w[:c] * f[:c]))
    lo, hi = grid.edges[c], grid.edges[c + 1]
    frac = (lam**grid.d - lo**grid.d) / (hi**grid.d - lo**grid.d)
    acc += frac * grid.w[c] * f[c]
    return 0.5 * om * float(acc)


@dataclass
class RotatedEnergyReport:
    lhs: float            # E(u e^{is theta})
    rhs: float            # E(u) + s b + (s^2/2) c
    mismatch: float
    linear_term: float    # b = int grad(theta) . Im(conj(u) grad u)
    quad_term: float      # c = int |grad theta|^2 |u|^2
    discriminant: float | None  # b^2 - 2 E(u) c, when M(u) is at the threshold


def rotated_energy_check(u: np.ndarray, theta_vals: np.ndarray, s: float,
                         plan: TransformPlan, km: KernelMatrix,
                         m_gs: float | None = None,
                         theta_prime: np.ndarray | None = None) -> RotatedEnergyReport:
    """Check E(u e^{is theta}) = E(u) + s b + (s^2/2) c for a radial profile
    theta, and (at mass m_gs) the discriminant inequality |b| <= sqrt(2 E c).

    Pass `theta_prime` when the derivative of theta is known in closed form;
    otherwise it is computed spectrally (which limits how small a mismatch
    can be resolved)."""
    g = plan.grid
    om = km.omega
    theta_p = theta_prime if theta_prime is not None \
        else radial_derivative(plan, theta_vals)
    du = radial_derivative(plan, u)
    b = om * float(np.sum(g.w * theta_p * np.imag(np.conj(u) * du)))
    cquad = om * float(np.sum(g.w * theta_p**2 * np.abs(u)**2))
    qu = functionals(u, plan, km)
    lhs = functionals(u * np.exp(1j * s * theta_vals), plan, km).E
    rhs = qu.E + s * b + 0.5 * s * s * cquad
    disc = None
    if m_gs is not None and abs(qu.M - m_gs) / m_gs < 1e-6:
        disc = b * b - 2 * qu.E * cquad
    return RotatedEnergyReport(lhs=lhs, rhs=rhs, mismatch=abs(lhs - rhs),
                               linear_term=b, quad_term=cquad, discriminant=disc)
