"""Acceptance suite: the end-to-end numerical gates of the laboratory.

Each numbered test pins one headline capability at its stated tolerance;
expensive artifacts (production-resolution ground states, the blow-up
trajectory) are computed once in session fixtures and shared.
"""

import math
import time

import numpy as np
import pytest

from hartreelab import (IntegratorConfig, build_grid, build_kernel, build_plan,
                        concentration, evolve, fit_blowup, functionals,
                        gn_audit, hardy_ratio, lv_value, make_params,
                        pseudo_conformal_family, rearrange_decreasing, rescale,
                        rotated_energy_check, solve_ground_state)
from hartreelab.cli import _random_fields
from hartreelab.ground_state import GroundStateOptions
from hartreelab.hartree import surface_area
from hartreelab.grid import radial_derivative
from hartreelab.profiles import gaussian_profile
from hartreelab.transform import _forward, _matvec

from conftest import Ctx

CASES = [(3, -0.1, 12.0), (3, -0.2, 12.0), (4, -0.5, 14.0)]


class SolvedCase(Ctx):
    def __init__(self, d, a, n, r_max):
        super().__init__(d, a, n, r_max)
        t0 = time.perf_counter()
        self.gs = solve_ground_state(self.params, self.grid, self.plan, self.km,
                                     GroundStateOptions(residual_tol=1e-6))
        self.wall = time.perf_counter() - t0


@pytest.fixture(scope="session")
def cases_1024():
    return [SolvedCase(d, a, 1024, r_max) for d, a, r_max in CASES]


@pytest.fixture(scope="session")
def case3_512():
    return SolvedCase(3, -0.1, 512, 12.0)


@pytest.fixture(scope="session")
def blowup_traj(case3_512):
    """Minimal-mass blow-up run at production resolution, shared by the
    power-law-fit and mass-concentration tests."""
    c = case3_512
    u0 = pseudo_conformal_family(c.gs.Q, 1.0, 0.0, 0.0, c.plan)
    cfg = IntegratorConfig(dt=2e-4, t_end=1.0, output_stride=50)
    return evolve(u0, cfg, c.plan, c.km)


@pytest.fixture(scope="session")
def subcritical_traj():
    """Subcritical evolution at dt and dt/2 (for the conservation gates and
    the virial identity)."""
    c = Ctx(3, -0.1, 256, 12.0)
    u0 = (0.45 * c.grid.r**(-c.params.rho) * np.exp(-c.grid.r**2 / 2)).astype(complex)
    trajs = {}
    for dt in (1e-4, 5e-5):
        cfg = IntegratorConfig(dt=dt, t_end=1.0, output_stride=200)
        trajs[dt] = evolve(u0, cfg, c.plan, c.km)
    return c, trajs


def test_01_ground_state_production(cases_1024):
    # [PAPER] at n = 1024: Euler-Lagrange residual < 1e-6, Pohozaev defects
    # |M-H| and |M-L_V| < 1e-6 M_gs, each solve < 300 s
    for c in cases_1024:
        q = functionals(c.gs.Q, c.plan, c.km)
        assert c.gs.residual < 1e-6, (c.params.d, c.params.a)
        assert abs(q.M - q.H) / c.gs.m_gs < 1e-6
        assert abs(q.M - q.L_V) / c.gs.m_gs < 1e-6
        assert c.wall < 300.0
        assert np.min(c.gs.Q) > -1e-12


def test_02_sharp_gn_inequality(cases_1024):
    # [PAPER] J(u) >= M_gs(1 - 1e-6) over 100 seeded smooth fields per case
    for i, c in enumerate(cases_1024):
        rng = np.random.default_rng(100 + i)
        fields = _random_fields(c.params, c.grid, rng, 100)
        assert gn_audit(fields, c.gs.m_gs, c.plan, c.km) == 0, (c.params.d, c.params.a)


def test_03_initialization_and_grid_independence(cases_1024, case3_512):
    # [DERIVED] M_gs independent of the initial guess (a gaussian start
    # against the default) to 1e-6 and of grid
    # doubling (n = 512 -> 1024) to 1e-5
    c = case3_512
    gaussian = solve_ground_state(c.params, c.grid, c.plan, c.km,
                                  GroundStateOptions(residual_tol=1e-6),
                                  init=gaussian_profile(c.params, c.grid))
    assert gaussian.m_gs == pytest.approx(c.gs.m_gs, rel=1e-6)
    fine = cases_1024[0]
    assert c.gs.m_gs == pytest.approx(fine.gs.m_gs, rel=1e-5)


def test_04_conservation_laws(subcritical_traj):
    # [PAPER] subcritical run to t = 1: relative mass drift < 1e-11, relative
    # energy drift < 1e-6, and the energy drift is second order in dt
    _, trajs = subcritical_traj
    drifts = {}
    for dt, traj in trajs.items():
        assert traj.stop_reason == "completed"
        q0, qT = traj.quantities[0], traj.quantities[-1]
        # roundoff accumulates with the step count, so the halved-dt run
        # (twice the steps) gets a proportionally looser mass gate
        assert abs(qT.M - q0.M) / q0.M < 1e-11 * (1e-4 / dt)
        e_drift = abs(qT.E - q0.E) / abs(q0.E)
        assert e_drift < 1e-6
        drifts[dt] = e_drift
    assert 3.5 < drifts[1e-4] / drifts[5e-5] < 4.5


def test_05_virial_identity(subcritical_traj):
    # [PAPER] centered second difference of Gamma(t) matches 16 E within 1%
    c, trajs = subcritical_traj
    traj = trajs[1e-4]
    ts = np.asarray(traj.times)
    gam = np.asarray(traj.gamma)
    h = ts[1] - ts[0]
    gpp = (gam[2:] - 2 * gam[1:-1] + gam[:-2]) / h**2
    E = traj.quantities[0].E
    assert np.max(np.abs(gpp - 16 * E)) < 0.01 * abs(16 * E)


def test_06_global_existence_bound(case3_512):
    # [PAPER] below threshold (M = 0.81 M_gs) the kinetic part stays bounded:
    # H(t) (1 - M/M_gs) <= E (1 + 1e-3) along the flow
    c = case3_512
    u0 = rescale(c.gs.Q, c.grid, c.params.rho, 0.9, 1.0).astype(complex)
    cfg = IntegratorConfig(dt=5e-4, t_end=2.0, output_stride=100)
    traj = evolve(u0, cfg, c.plan, c.km)
    assert traj.stop_reason == "completed"
    q0 = traj.quantities[0]
    gap = 1 - q0.M / c.gs.m_gs
    assert gap > 0
    for q in traj.quantities:
        assert q.H * gap <= q.E * (1 + 1e-3)


def test_07_blowup_rate(case3_512, blowup_traj):
    # [PAPER] pseudo-conformal solution with T* = 1: fitted exponent 2 +- 0.1,
    # fitted T* within 2%, Gamma(t) = 8 E(u_0) (T*-t)^2 within 2%
    traj = blowup_traj
    assert traj.stop_reason in ("blowup-suspected", "blowup-resolved-limit")
    T_est, p = fit_blowup(traj)
    assert abs(p - 2.0) < 0.1
    assert abs(T_est - 1.0) < 0.02
    E0 = traj.quantities[0].E
    ts = np.asarray(traj.times)
    const = np.median(np.asarray(traj.gamma) / (T_est - ts)**2)
    assert abs(const - 8 * E0) < 0.02 * abs(8 * E0)


def test_08_mass_concentration(case3_512, blowup_traj):
    # [PAPER] mass in the shrinking window lam(t) = sqrt(T*-t) at the last
    # resolved sample is >= 0.95 M_gs
    c = case3_512
    traj = blowup_traj
    T_est, _ = fit_blowup(traj)
    t_last = traj.times[-1]
    lam = math.sqrt(max(T_est - t_last, 0.0))
    assert lam > 0
    acc = concentration(traj.fields[-1], lam, c.grid)
    assert acc >= 0.95 * c.gs.m_gs


def test_09_operator_fidelity(case3_512):
    # [DERIVED] transform round trip < 1e-10; discrete L_a self-adjoint and
    # positive to 1e-9; Gaussian L_V closed form pi^3/4 to 1e-6, cross-checked
    # by a >= 1e7-sample Monte-Carlo estimate at 3 sigma
    c = case3_512
    rng = np.random.default_rng(9)
    u = rng.standard_normal(c.grid.n) * np.exp(-c.grid.r)
    v = _matvec(c.plan.Psi, _forward(c.plan, u))
    assert np.max(np.abs(v - u)) < 1e-10 * max(1.0, np.max(np.abs(u)))
    from hartreelab.transform import apply_la
    w = c.grid.w
    f = rng.standard_normal(c.grid.n) * np.exp(-c.grid.r)
    g = rng.standard_normal(c.grid.n) * np.exp(-c.grid.r)
    assert abs(np.sum(w * g * apply_la(c.plan, f)) -
               np.sum(w * f * apply_la(c.plan, g))) < 1e-9
    assert np.sum(w * f * apply_la(c.plan, f)) > -1e-9

    free = Ctx(3, 0.0, 512, 12.0)
    gauss = np.exp(-free.grid.r**2 / 2)
    quad = lv_value(free.km, gauss)
    assert quad == pytest.approx(math.pi**3 / 4, rel=1e-6)
    sig_z, total, chunks = 2.0, 10_000_000, 10
    est = []
    for _ in range(chunks):
        m = total // chunks
        x = rng.normal(scale=math.sqrt(0.5), size=(m, 3))
        zdir = rng.normal(size=(m, 3))
        zdir /= np.linalg.norm(zdir, axis=1)[:, None]
        rr = np.abs(rng.normal(scale=sig_z, size=m))
        p_r = math.sqrt(2 / math.pi) / sig_z * np.exp(-rr**2 / (2 * sig_z**2))
        y = x + zdir * rr[:, None]
        est.append(np.exp(-np.sum(y**2, axis=1)) * surface_area(3) / p_r)
    vals = np.concatenate(est)
    mc = 0.25 * math.pi**1.5 * float(np.mean(vals))
    sem = 0.25 * math.pi**1.5 * float(np.std(vals)) / math.sqrt(total)
    assert abs(quad - mc) < 3 * sem


def test_10_inequality_audits(case3_512):
    # [PAPER] over >= 50 seeded fields: Hardy ratio <= (2/(d-2))^2,
    # rearrangement monotonicity, and non-negative discriminant of the rotated
    # energy quadratic at threshold mass - zero violations
    c = case3_512
    rng = np.random.default_rng(77)
    real = _random_fields(c.params, c.grid, rng, 50)
    cplx = _random_fields(c.params, c.grid, rng, 50, complex_valued=True)
    bound = (2.0 / (c.params.d - 2))**2
    for u in real:
        assert hardy_ratio(u, c.plan) <= bound * (1 + 1e-9)
        v = rearrange_decreasing(u, c.grid)
        M_u = float(np.sum(c.grid.w * np.abs(u)**2))
        M_v = float(np.sum(c.grid.w * v**2))
        assert M_v == pytest.approx(M_u, rel=1e-9)
        du = radial_derivative(c.grid, c.params.rho, np.abs(u))
        dv = radial_derivative(c.grid, c.params.rho, v)
        g_u = float(np.sum(c.grid.w * np.abs(du)**2))
        g_v = float(np.sum(c.grid.w * np.abs(dv)**2))
        assert g_v <= g_u * (1 + 1e-9)
        assert lv_value(c.km, v) >= lv_value(c.km, np.abs(u)) * (1 - 1e-9)
    r0 = 0.3 * c.grid.r_max
    theta = np.exp(-(c.grid.r - r0)**2)
    theta_p = 2 * (r0 - c.grid.r) * theta
    for u in cplx:
        q = functionals(u, c.plan, c.km)
        u_th = u * math.sqrt(c.gs.m_gs / q.M)
        rep = rotated_energy_check(u_th, theta, 0.3, c.plan, c.km,
                                   m_gs=c.gs.m_gs, theta_prime=theta_p)
        scale = max(abs(rep.lhs), abs(rep.rhs), 1.0)
        assert rep.mismatch < 1e-6 * scale + 1e-5
        if rep.discriminant is not None:
            assert rep.discriminant <= 1e-9 * max(rep.quad_term, 1.0)
