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

`evolve` forms what consecutive steps share once, not in every step:

  - The half-step rotation e^{-i Phi[|u|^2] dt/2}.  The rotation leaves |u|
    alone, so the Phi that ends Strang step k is the Phi that starts step
    k + 1 (Lubich, Math. Comp. 77, 2008).  `step` returns the rotation it
    ended with and takes it back as `rot`, so a strang-split step makes one
    potential call and one rotation instead of two.  The carried Phi is
    that of the field before its end rotation, so `evolve` matches a loop of
    one-shot steps to round-off (|e^{i theta}| = 1 to an ulp), not bit for bit.
  - The linear-flow matrices U_tau = Psi diag(e^{i k^2 tau}) Psi^T W, once
    per run: tau = dt, and for midpoint-relaxation also tau = dt/2.  Each
    linear flow is then one complex product U_tau @ v in place of a forward
    transform, a phase multiply and an inverse transform.  The flops and
    bytes are the same (one complex n x n matrix against two real ones), but
    it is one BLAS call instead of two, and OpenBLAS runs the complex
    matrix-vector product on all its threads where the real (n, 2) product
    of the transforms runs on one (`tools/propagator_drift.py` prints the
    time per step this gives at n = 384 and 512).  The real part of U_tau
    is the exact identity minus a rounded correction (`_flow_matrix`), which
    keeps the mass drift of `test_04_conservation_laws` over t = 1 under its
    gates of 1e-11 / 2e-11 at dt = 1e-4 / 5e-5; `tools/propagator_drift.py`
    prints that drift for both schemes.  Each U_tau has its own phases
    rather than the dt phases being the square of the dt/2 ones, which
    raised the midpoint-relaxation drift.  ROADMAP item 12 keeps the drifts
    of these rejected forms.
  Given the rotation a one-shot step forms itself, `step` is bit-identical
  to that one-shot step.

Every half-step rotation e^{-i Phi dt/2} comes from `_rotation`, which writes
cos theta and sin theta of the real phase theta = -(dt/2) Phi into one complex
array instead of taking the complex exp of i theta, and so skips the complex
multiply and the exp of the real part.  The two agree bit for bit where the C
library's cexp(0 + i theta) is cos theta + i sin theta, as glibc's is:
numpy forms -0.5j * dt * Phi with imaginary part (-0.5 dt) Phi, the same
theta, and a zero real part.  `test_rotation_matches_the_complex_exp` holds
each component within one ulp of the complex exp.

Diagnostics follow the virial machinery: Gamma = int |x|^2 |u|^2, its
derivative Gamma' = -4 Im int conj(u) (x . grad u) = -2 Im int |x|^2 conj(u)
L_a u, and Gamma'' = 16 E along solutions.  On the grid the last form is the
exact time derivative of the discrete Gamma under the discrete flow: the
nonlinear rotation leaves |u| alone and apply_la is self-adjoint in the w-metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .functionals import functionals
from .grid import boundary_mass_fraction, dilate, radial_derivative
from .hartree import KernelMatrix, potential, surface_area
from .transform import TransformPlan, apply_la

BOUNDARY_TOL = 1e-8      # evolve flags a sample with more mass in the outer cells
FIT_MIN_SAMPLES = 10     # fewest growing samples fit_blowup accepts
_FLOW_ROWS = 64          # rows of a flow matrix formed by one product


@dataclass
class IntegratorConfig:
    dt: float = 1e-3
    t_end: float = 1.0
    scheme: str = "strang-split"      # or "midpoint-relaxation"
    output_stride: int = 10
    min_scale_cells: float = 4.0      # stop when 1/sqrt(H) < this many cells

    def __post_init__(self):
        """Raises ValueError naming every failing field, one per line."""
        errors = []
        if not 0 < self.dt < math.inf:
            errors.append(f"dt must be positive and finite, got {self.dt!r}")
        if not 0 <= self.t_end < math.inf:
            errors.append(f"t_end must be non-negative and finite, got {self.t_end!r}")
        elif not errors and abs(round(self.t_end / self.dt) * self.dt - self.t_end) \
                > 1e-9 * abs(self.t_end):
            errors.append(f"t_end = {self.t_end!r} is not a whole number of "
                          f"steps dt = {self.dt!r}")
        if self.scheme not in ("strang-split", "midpoint-relaxation"):
            errors.append(f"scheme must be strang-split or midpoint-relaxation, "
                          f"got {self.scheme!r}")
        if self.output_stride < 1:
            errors.append(f"output_stride must be >= 1, got {self.output_stride!r}")
        if not self.min_scale_cells > 0:
            errors.append(f"min_scale_cells must be positive, "
                          f"got {self.min_scale_cells!r}")
        if errors:
            raise ValueError("\n".join(errors))


@dataclass
class Trajectory:
    times: list = field(default_factory=list)
    quantities: list = field(default_factory=list)   # Quantities per sample
    gamma: list = field(default_factory=list)
    gamma_prime: list = field(default_factory=list)
    fields: list = field(default_factory=list)        # snapshots per sample
    boundary_flags: list = field(default_factory=list)  # boundary flag per sample
    stop_reason: str = "completed"
    stop_time: float = 0.0
    # 1/sqrt(H) in cells at a "blowup-resolved-limit" stop; None otherwise
    stop_value: float | None = None


def _flow_matrix(plan: TransformPlan, tau: float) -> np.ndarray:
    """U_tau = Psi diag(e^{i k^2 tau}) Psi^T W, the matrix of e^{+i tau L_a}.

    Its real and imaginary parts are real products of Psi with Psi^T, with
    no complex copy of Psi and the weights W applied to each product's
    columns.  The real part is I - Psi diag(2 sin^2(k^2 tau / 2)) Psi^T W
    (Psi Psi^T W = I for the square orthonormal modes), so the identity is
    exact and only the small correction is rounded.  Both parts are formed
    _FLOW_ROWS rows at a time, so U and two blocks are all the build holds."""
    phase = plan.k**2 * tau
    n = len(phase)
    U = np.empty((n, n), dtype=complex)
    for part, scale in ((U.real, -2 * np.sin(phase / 2)**2), (U.imag, np.sin(phase))):
        for i0 in range(0, n, _FLOW_ROWS):
            blk = (plan.Psi[i0:i0 + _FLOW_ROWS] * scale) @ plan.Psi.T
            blk *= plan.grid.w
            part[i0:i0 + _FLOW_ROWS] = blk
    U.real.flat[::n + 1] += 1
    return U


def _flows(plan: TransformPlan, dt: float, scheme: str) -> tuple:
    """The linear-flow matrices of one step: U_dt, and for
    midpoint-relaxation also U_{dt/2}, each from its own exp."""
    taus = (dt, 0.5 * dt) if scheme == "midpoint-relaxation" else (dt,)
    return tuple(_flow_matrix(plan, tau) for tau in taus)


def _rotation(Phi: np.ndarray, dt: float) -> np.ndarray:
    """The half-step rotation e^{-i Phi dt/2} of a real potential Phi, as
    cos theta + i sin theta with theta = -(dt/2) Phi (see the module
    docstring).  A non-finite Phi gives a non-finite entry."""
    theta = (-0.5 * dt) * Phi
    rot = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=rot.real)
    np.sin(theta, out=rot.imag)
    return rot


def step(u: np.ndarray, dt: float, plan: TransformPlan, km: KernelMatrix,
         scheme: str, rot: np.ndarray | None, flows: tuple) -> tuple:
    """One time step; mass is conserved to round-off by construction.

    Returns (u, rot): the new field and, for strang-split, the end rotation
    e^{-i Phi dt/2} (None for midpoint-relaxation).  Passing that rotation
    back as `rot` lets the next strang-split step skip its first potential;
    with rot None the step forms it.  `flows` are the linear-flow matrices
    `_flows(plan, dt, scheme)`, which `evolve` forms once per run.
    """
    if scheme not in ("strang-split", "midpoint-relaxation"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "strang-split":
        if rot is None:
            rot = _rotation(potential(km, u), dt)
        u = flows[0] @ (u * rot)
        rot = _rotation(potential(km, u), dt)
        return u * rot, rot
    # midpoint-relaxation: freeze the potential at a fixed-point approximation
    # of its midpoint value: iterate v_half = L(dt/2) e^{-i Phi dt/2} u,
    # Phi = Phi[|v_half|^2]
    full, half = flows
    Phi = potential(km, u)
    for _ in range(2):
        v = half @ (u * _rotation(Phi, dt))
        Phi = potential(km, v)
    rot = _rotation(Phi, dt)
    return (full @ (u * rot)) * rot, None


def virial(u: np.ndarray, plan: TransformPlan,
           lau: np.ndarray | None = None) -> tuple:
    """(Gamma, Gamma') with Gamma = int |x|^2 |u|^2 and
    Gamma' = -2 Im int |x|^2 conj(u) L_a u.  `lau` is L_a u when the caller
    has it."""
    g = plan.grid
    om = surface_area(g.d)
    f = np.abs(u)**2
    gamma = om * float(np.sum(g.w * g.r**2 * f))
    if lau is None:
        lau = apply_la(plan, u)
    gamma_p = -2 * om * float(np.sum(g.w * g.r**2 * np.imag(np.conj(u) * lau)))
    return gamma, gamma_p


def evolve(u0: np.ndarray, cfg: IntegratorConfig, plan: TransformPlan,
           km: KernelMatrix) -> Trajectory:
    """Integrate to t_end or to a blow-up stop event; records the stop reason.

    A step whose field has a non-finite entry stops the run as
    `blowup-suspected`.  The check is one reduction, the field's sum, so a
    finite field whose sum overflows (entries of about 1e305 and up) stops
    the same way."""
    u = np.asarray(u0, dtype=complex)
    traj = Trajectory()
    h = plan.grid.h
    nsteps = int(round(cfg.t_end / cfg.dt))
    t = 0.0

    def record(tcur, ucur):
        # one L_a u serves both H and Gamma'; the boundary flag is raised when
        # the relative mass in the outermost cells exceeds BOUNDARY_TOL (the
        # truncated variance is then untrustworthy)
        lau = apply_la(plan, ucur)
        q = functionals(ucur, plan, km, lau)
        gamma, gamma_p = virial(ucur, plan, lau=lau)
        traj.times.append(tcur)
        traj.quantities.append(q)
        traj.gamma.append(gamma)
        traj.gamma_prime.append(gamma_p)
        traj.fields.append(ucur.copy())
        traj.boundary_flags.append(boundary_mass_fraction(plan.grid, ucur) > BOUNDARY_TOL)
        return q

    flows = _flows(plan, cfg.dt, cfg.scheme)
    rot = None
    record(t, u)
    for i in range(1, nsteps + 1):
        u, rot = step(u, cfg.dt, plan, km, cfg.scheme, rot, flows)
        t = i * cfg.dt
        if not np.isfinite(u.sum()):
            traj.stop_reason = "blowup-suspected"
            break
        if i % cfg.output_stride == 0 or i == nsteps:
            q = record(t, u)
            if q.H > 0 and 1.0 / math.sqrt(q.H) < cfg.min_scale_cells * h:
                traj.stop_reason = "blowup-resolved-limit"
                traj.stop_value = 1.0 / math.sqrt(q.H) / h
                break
    traj.stop_time = t
    return traj


def pseudo_conformal_family(Q: np.ndarray, T_star: float, theta: float,
                            t: float, plan: TransformPlan) -> np.ndarray:
    """Minimal-mass blow-up snapshot at time t built from the ground state Q.

    With s = T_star - t and lam0 = 1/T_star (so the scale is 1 at t = 0):

        u(t, x) = e^{i theta} e^{-i/(lam0^2 s)} (lam0 s)^{-d/2}
                  Q(x/(lam0 s)) e^{i |x|^2 s^{-1}/4},

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
    prof = dilate(plan.grid, plan.params.rho, Q, 1.0 / scale) * scale**(-d / 2)
    r = plan.grid.r
    return prof * np.exp(1j * (theta - 1.0 / (lam0**2 * s) + r**2 / (4 * s)))


class FitRejected(RuntimeError):
    pass


def fit_blowup(traj: Trajectory):
    """Fit the pseudo-conformal laws; returns (T_star_est, rate_exponent).

    At threshold the blow-up solution obeys Gamma = 8 E (T* - t)^2 and
    H - E = C (T* - t)^{-2} exactly (the chirp adds E to H, so a fit of H
    itself biases p low).  With E_0 the first sample's energy, over the
    growing tail of H - E_0 (from its first global minimum on), T* is where
    the least-squares line through sqrt(Gamma) reaches zero, and p is minus
    the least-squares slope of log(H - E_0) against log(T* - t) over the
    last decade of H - E_0 (the whole tail if that holds fewer than
    FIT_MIN_SAMPLES samples).  Rejects a short tail, an H tail that is not
    growing or not above E_0, a Gamma that is not positive and decreasing,
    a T* at or before the last sample, and for E_0 < 0 a T* not before
    T_Gamma, where Gamma'' = 16 E takes the first sample's Gamma to zero
    (Glassey 1977).  Above threshold Gamma(T*) > 0, so sqrt(Gamma) is no
    line, and the fitted p strays from 2 (README's evolution row has the
    case).  The paper's laws hold only at threshold, so no other fit is
    tried.
    """
    t = np.asarray(traj.times)
    E0 = traj.quantities[0].E
    Hs = np.array([q.H for q in traj.quantities]) - E0
    gam = np.asarray(traj.gamma)
    imin = int(np.argmin(Hs))
    t, Hs, gam = t[imin:], Hs[imin:], gam[imin:]
    if len(t) < FIT_MIN_SAMPLES:
        raise FitRejected(f"need >= {FIT_MIN_SAMPLES} growing samples, got {len(t)}")
    if np.any(np.diff(Hs) <= 0):
        raise FitRejected("H tail is not monotonically growing")
    if Hs[0] <= 0:
        raise FitRejected("H tail does not stay above the initial energy")
    if np.any(np.diff(gam) >= 0) or gam[-1] <= 0:
        raise FitRejected("Gamma is not positive and strictly decreasing over the tail")
    slope, icpt = np.polyfit(t, np.sqrt(gam), 1)
    T_star = -icpt / slope
    if not T_star > t[-1]:
        raise FitRejected(f"T* = {T_star:.6g} is not past the last sample t = {t[-1]:.6g}")
    if E0 < 0:
        g0, g0p = traj.gamma[0], traj.gamma_prime[0]
        T_gamma = traj.times[0] + 2 * g0 / (math.sqrt(g0p**2 - 32 * E0 * g0) - g0p)
        if T_star >= T_gamma:
            raise FitRejected(f"T* = {T_star:.6g} is not before the virial bound "
                              f"T_Gamma = {T_gamma:.6g} of E_0 = {E0:.6g} < 0")
    decade = Hs >= Hs[-1] / 10.0
    if int(np.sum(decade)) >= FIT_MIN_SAMPLES:
        t, Hs = t[decade], Hs[decade]
    p = -np.polyfit(np.log(T_star - t), np.log(Hs), 1)[0]
    return float(T_star), float(p)


def concentration(u: np.ndarray, lam: float, grid) -> float:
    """(1/2) int_{|x| <= lam} |u|^2, with the cell containing lam counted
    fractionally (by the volume fraction (lam^d - lo^d)/(hi^d - lo^d)).
    A radius lam <= 0 encloses nothing; a NaN radius raises ValueError."""
    if math.isnan(lam):
        raise ValueError("concentration radius is NaN")
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
    rhs: float            # E(u) + s b + (s^2/2) c, b = int grad(theta) . Im(conj(u) grad u)
    mismatch: float
    quad_term: float      # c = int |grad theta|^2 |u|^2
    discriminant: float | None  # b^2 - 2 E(u) c, when M(u) is at the threshold


def rotated_energy_check(u: np.ndarray, theta_vals: np.ndarray, s: float,
                         plan: TransformPlan, km: KernelMatrix,
                         m_gs: float | None = None, *,
                         theta_prime: np.ndarray) -> RotatedEnergyReport:
    """Check E(u e^{is theta}) = E(u) + s b + (s^2/2) c for a radial profile
    theta with derivative `theta_prime`, and (at mass m_gs) the discriminant
    inequality |b| <= sqrt(2 E c); u' is taken through u's regular part
    r^rho u."""
    g = plan.grid
    om = km.omega
    du = radial_derivative(g, plan.params.rho, u)
    b = om * float(np.sum(g.w * theta_prime * np.imag(np.conj(u) * du)))
    cquad = om * float(np.sum(g.w * theta_prime**2 * np.abs(u)**2))
    qu = functionals(u, plan, km)
    lhs = functionals(u * np.exp(1j * s * theta_vals), plan, km).E
    rhs = qu.E + s * b + 0.5 * s * s * cquad
    disc = None
    if m_gs is not None and abs(qu.M - m_gs) / m_gs < 1e-6:
        disc = b * b - 2 * qu.E * cquad
    return RotatedEnergyReport(lhs=lhs, rhs=rhs, mismatch=abs(lhs - rhs),
                               quad_term=cquad, discriminant=disc)
