import sys
import tracemalloc

import numpy as np
import pytest
from scipy import special

from conftest import Ctx
from hartreelab import (build_plan, el_residual, functionals, gn_audit,
                        load_ground_state, rescale, save_ground_state,
                        solve_ground_state)
from hartreelab import ground_state, transform
from hartreelab.cli import _random_fields
from hartreelab.grid import boundary_mass_fraction, radial_derivative
from hartreelab.ground_state import GroundStateError, GroundStateOptions
from hartreelab.profiles import gaussian_profile, shell_profile



def test_pohozaev_chain(ctx3, gs3):
    # [PAPER] M(Q) = H(Q) = L_V(Q) = M_gs within discretization tolerance
    q = functionals(gs3.Q, ctx3.plan, ctx3.km)
    assert abs(q.M - q.H) / gs3.m_gs < 1e-5
    assert abs(q.M - q.L_V) / gs3.m_gs < 1e-5
    assert abs(q.H - q.L_V) / gs3.m_gs < 1e-5
    assert q.J == pytest.approx(gs3.m_gs, rel=1e-8)   # [TRIVIAL] definition


def test_el_residual_gate(ctx3, gs3):
    # [DERIVED] solver acceptance gate at n = 256
    assert gs3.residual < 1e-4
    assert el_residual(gs3.Q, ctx3.plan, ctx3.km) == pytest.approx(gs3.residual)


def test_nonnegative_and_trace_above_m_gs(gs3):
    # [TRIVIAL] Q >= 0; that every field has J >= M_gs is test_gn_audit's
    assert np.min(gs3.Q) > -1e-12


def test_initialization_independence(ctx3, gs3):
    # [DERIVED] a gaussian start and the default r^{-rho} / cosh r agree on
    # M_gs to 1e-6
    res2 = solve_ground_state(ctx3.params, ctx3.grid, ctx3.plan, ctx3.km,
                              GroundStateOptions(residual_tol=1e-4),
                              init=gaussian_profile(ctx3.params, ctx3.grid))
    assert res2.m_gs == pytest.approx(gs3.m_gs, rel=1e-6)


def test_minimality_against_competitor(ctx3, gs3):
    # [TRIVIAL] J(Q) <= J(any competitor)
    g = ctx3.grid
    u = g.r**(-ctx3.params.rho) * np.exp(-g.r**2 / 2)
    q = functionals(u, ctx3.plan, ctx3.km)
    assert gs3.m_gs <= q.J


def test_quadratic_deficit(ctx3, gs3):
    # [DERIVED] J(Q + eps*bump) - M_gs grows like eps^2
    g = ctx3.grid
    bump = np.exp(-(g.r - 2.0)**2)
    defs = []
    for eps in (0.01, 0.02):
        q = functionals(gs3.Q + eps * bump, ctx3.plan, ctx3.km)
        defs.append(q.J - gs3.m_gs)
    assert defs[0] > -1e-9 * gs3.m_gs
    assert defs[1] / defs[0] == pytest.approx(4.0, rel=0.3)


def test_residual_of_gaussian_is_order_one(ctx3):
    # [DERIVED] a non-solution has residual of order 1
    g = ctx3.grid
    u = g.r**(-ctx3.params.rho) * np.exp(-g.r**2 / 2)
    assert el_residual(u, ctx3.plan, ctx3.km) > 0.1


def test_residual_grows_off_balance(ctx3, gs3):
    # [TRIVIAL] Q is the fixed point of the (mu, nu_s) balance
    g = ctx3.grid
    base = el_residual(gs3.Q, ctx3.plan, ctx3.km)
    off = rescale(gs3.Q, g, ctx3.params.rho, 1.1, 1.0)
    assert el_residual(off, ctx3.plan, ctx3.km) > 5 * base


def test_gn_audit(ctx3, gs3):
    # [PAPER] J(u) >= M_gs (1 - 1e-6) across seeded smooth fields
    rng = np.random.default_rng(11)
    fields = _random_fields(ctx3.params, ctx3.grid, rng, 30)
    assert gn_audit(fields, gs3.m_gs, ctx3.plan, ctx3.km) == 0


def test_gn_audit_zero_field(ctx3, gs3):
    # [TRIVIAL] a zero field has L_V = 0: J is undefined and no violation
    assert gn_audit([np.zeros(ctx3.grid.n)], gs3.m_gs, ctx3.plan, ctx3.km) == 0


def test_serialization_round_trip(tmp_path, ctx3, gs3):
    # [TRIVIAL] text format round trip
    path = tmp_path / "q.txt"
    save_ground_state(path, gs3, ctx3.params, ctx3.grid)
    meta, r, Q = load_ground_state(path)
    assert meta["d"] == 3 and meta["n"] == ctx3.grid.n
    assert meta["m_gs"] == gs3.m_gs
    assert np.array_equal(r, ctx3.grid.r)
    assert np.array_equal(Q, gs3.Q)


def test_load_rejects_a_short_file(tmp_path):
    # [TRIVIAL] a file with fewer data rows than its header's n is rejected
    # on load, naming the file, the header's n and the rows it holds
    path = tmp_path / "short.txt"
    path.write_text("# d a n r_max M_gs residual\n3 -0.1 64 12.0 1.0 0.0\n0.1 1.0\n")
    with pytest.raises(ValueError, match=r"short\.txt.*header n = 64 but 1 data rows"):
        load_ground_state(path)


@pytest.mark.parametrize("text,missing", [
    ("", "no header line"), ("# d a n r_max M_gs residual\n\n", "no header line"),
    ("3 -0.1 n 12.0 1.0 0.0\n", "header '3 -0.1 n 12.0 1.0 0.0' is not the six numbers"),
    ("3 -0.1 1 12.0 1.0\n0.1 1.0\n", "header '3 -0.1 1 12.0 1.0' is not the six"),
    ("3 -0.1 1 12.0 1.0 0.0\n0.1\n", "a data row is not the two numbers"),
    ("3 -0.1 2 12.0 1.0 0.0\n0.1 1.0\n0.2 nan\n", "data row 2 '0.2 nan' is not finite")])
def test_load_names_the_file_and_what_is_missing(tmp_path, text, missing):
    # [TRIVIAL] an empty or header-less file, a header that is not six
    # numbers, a row that is not two and a row that is not finite raise
    # ValueError naming the file
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"bad\.txt.*: {missing}"):
        load_ground_state(path)


def test_bad_inputs(ctx3):
    # [TRIVIAL] invalid initial data, non-convergence and a non-finite field
    # handed to el_residual raise with context
    with pytest.raises(ValueError):
        solve_ground_state(ctx3.params, ctx3.grid, ctx3.plan, ctx3.km,
                           init=np.zeros(ctx3.grid.n))
    with pytest.raises(GroundStateError) as exc:
        solve_ground_state(ctx3.params, ctx3.grid, ctx3.plan, ctx3.km,
                           GroundStateOptions(residual_tol=1e-15))
    assert exc.value.residuals    # the |F| history rides on the error
    with pytest.raises(ValueError, match="non-finite"):
        el_residual(np.full(ctx3.grid.n, np.nan), ctx3.plan, ctx3.km)


def test_iteration_cap_ends_the_solve(ctx3, gs3, monkeypatch):
    # [DERIVED] a solve that reaches CAP before TOL rescales the last
    # iterate: 10 iterates from the default start leave a relative |F| of
    # 3.6e-8 and a residual of 1.49e-6 (1.47e-6 converged, in 15 iterates),
    # with an m_gs 3.0e-14 relative from the converged one
    capped = 10
    monkeypatch.setattr(ground_state, "CAP", capped)
    res = solve_ground_state(ctx3.params, ctx3.grid, ctx3.plan, ctx3.km)
    assert res.iterations == len(res.residuals) == capped
    assert res.residuals[-1] >= ground_state.TOL
    assert res.m_gs == functionals(res.Q, ctx3.plan, ctx3.km).J
    assert res.m_gs == pytest.approx(gs3.m_gs, rel=1e-9)
    assert res.residual < 1e-5
    with pytest.raises(GroundStateError, match=f"after {capped} iterations"):
        solve_ground_state(ctx3.params, ctx3.grid, ctx3.plan, ctx3.km,
                           GroundStateOptions(residual_tol=1e-7))


def test_nonpositive_update_denominator_raises(ctx3, monkeypatch):
    # [TRIVIAL] a potential that vanishes from its second call makes the
    # second iterate's c . f zero; the solve raises naming that iterate,
    # with the two residuals so far, instead of dividing by it
    calls = []
    phi = ground_state.potential

    def vanishing(km, u):
        calls.append(1)
        return phi(km, u) if len(calls) == 1 else np.zeros_like(u)

    monkeypatch.setattr(ground_state, "potential", vanishing)
    with pytest.raises(GroundStateError, match="iterate 2:") as exc:
        solve_ground_state(ctx3.params, ctx3.grid, ctx3.plan, ctx3.km)
    assert len(exc.value.residuals) == 2
    assert len(calls) == 2


def test_boundary_mass_recorded_and_named_in_residual_error():
    # [DERIVED] a solve records Q's mass share in the outer grid cells, and
    # one that misses residual_tol names it: (6, 0, 256) misses the default
    # 1e-5 at r_max = 12 with 5.0e-9 of M(Q) there, and meets it at
    # r_max = 14 with 1.9e-10
    c = Ctx(6, 0.0, 256, 12.0)
    with pytest.raises(GroundStateError, match=r"boundary mass fraction 5\.0e-09, "
                                               r"Pohozaev wall term 6\.9e-06"):
        solve_ground_state(c.params, c.grid, c.plan, c.km)
    c = Ctx(6, 0.0, 256, 14.0)
    res = solve_ground_state(c.params, c.grid, c.plan, c.km)
    assert res.boundary_mass_fraction == boundary_mass_fraction(c.grid, res.Q)
    assert 1e-10 < res.boundary_mass_fraction < 3e-10


def test_scaling_anomaly_is_the_wall_term():
    # [DERIVED] at (6, 0, 256, r_max 12) the Dirichlet wall sets the scaling
    # anomaly: 4(nu_final - 1) is within 10 % of -2 P, with the recorded
    # Pohozaev term P = omega r_max^d Q'(r_max)^2 / (4 M) at 6.9e-6
    c = Ctx(6, 0.0, 256, 12.0)
    res = solve_ground_state(c.params, c.grid, c.plan, c.km,
                             GroundStateOptions(residual_tol=1e-3))
    M = functionals(res.Q, c.plan, c.km).M
    dQ = radial_derivative(c.grid, c.params.rho, res.Q)
    assert res.pohozaev_wall == c.km.omega * c.grid.r_max**6 * dQ[-1]**2 / (4 * M)
    assert 6.8e-6 < res.pohozaev_wall < 7.0e-6
    anomaly = 4 * (res.nu_final - 1)
    assert abs(anomaly + 2 * res.pohozaev_wall) <= 0.1 * 2 * res.pohozaev_wall, anomaly


def test_solve_evaluates_no_bessel_function(monkeypatch, ctx3):
    # [TRIVIAL] Petviashvili's iteration and the final dilation work from
    # the grid and the plan's matrices: a solve evaluates J_nu neither
    # by Hankel's expansion nor by Miller's recurrence, the transform's two
    # evaluations
    calls = []
    for name in ("_hankel", "_miller"):
        def counting(*args, _f=getattr(transform, name)):
            calls.append(args)
            return _f(*args)

        monkeypatch.setattr(transform, name, counting)
    solve_ground_state(ctx3.params, ctx3.grid, ctx3.plan, ctx3.km,
                       GroundStateOptions(residual_tol=1e-4))
    assert calls == []
    build_plan(ctx3.params, ctx3.grid)        # the counter does see the transform
    assert calls


@pytest.fixture(scope="module")
def ctx512():
    return Ctx(3, -0.1, 512, 12.0)


def _start(ctx, guess):
    """The r^{-rho} Gaussian start field, or None for the default
    r^{-rho} / cosh r."""
    return gaussian_profile(ctx.params, ctx.grid) if guess == "gaussian" else None


@pytest.mark.parametrize("guess,m_gs", [("gaussian", 1.1784600506298606),
                                        ("sech", 1.1784600506298608)])
def test_m_gs_pinned_and_few_iterates(ctx512, guess, m_gs):
    # [DERIVED] the threshold at (3, -0.1), n = 512, default options, within
    # 1e-12, from either start field, with the origin correction's psi-psi
    # entry in its p-form (1.13e-11 below the panel pass's value, toward the
    # Richardson limit of tools/convergence.py);
    # the Anderson-mixed iteration stops at the first iterate below TOL,
    # after at most 25 iterates (16 and 15 observed; 63 and 66 unmixed)
    res = solve_ground_state(ctx512.params, ctx512.grid, ctx512.plan, ctx512.km,
                             init=_start(ctx512, guess))
    assert res.m_gs == pytest.approx(m_gs, rel=1e-12)
    hist = res.residuals
    assert res.iterations == len(hist) <= 25
    assert hist[-1] < ground_state.TOL <= hist[-2]
    assert abs(res.nu_final - 1) < 1e-6


def test_solve_holds_no_dense_matrix(ctx512):
    # [DERIVED] the solve forms no n x n array: the traced peak of a solve at
    # n = 512, where one such array is 2 MiB, stays below 1 MiB
    tracemalloc.start()
    try:
        solve_ground_state(ctx512.params, ctx512.grid, ctx512.plan, ctx512.km)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


@pytest.fixture(scope="module")
def ctx6():
    return Ctx(6, -1.0, 256, 12.0)


@pytest.mark.parametrize("ctx_name,guess,m_gs", [
    ("ctx3_free", "gaussian", 1.4263921549247587), ("ctx3_free", "sech", 1.4263921549247582),
    ("ctx4", "gaussian", 2.652021473834231), ("ctx4", "sech", 2.652021473834232),
    ("ctx6", "gaussian", 9.497170147313215), ("ctx6", "sech", 9.497170147313216)])
def test_m_gs_pinned_across_dimensions(request, ctx_name, guess, m_gs):
    # [DERIVED] the threshold at (3, 0), (4, -0.5) and (6, -1.0), n = 256,
    # default options, within 1e-12: for d = 3 and 4 as the J-descent into
    # Newton gave it; for d = 6 on the exact sphere average (2F1 series and
    # recurrence) with the origin weight |w_0| (the plan's clip of the
    # negative w_0 gave 9.497170011901412, and a build with 1024-node
    # Gauss-Jacobi sphere averages matched that to 1.4e-11); the gaussian
    # and the default sech start field reach it alike
    ctx = request.getfixturevalue(ctx_name)
    res = solve_ground_state(ctx.params, ctx.grid, ctx.plan, ctx.km,
                             init=_start(ctx, guess))
    assert res.m_gs == pytest.approx(m_gs, rel=1e-12)


def test_m_gs_d7_independent_of_r_max():
    # [DERIVED] at (7, -3.0, 512) the wall term is ~3e-12, so r_max = 20 and
    # 24 give the same threshold within 1e-7 relative (observed 3.7e-8);
    # when the plan clipped the negative origin weight to 1e-14 max(w), a
    # floor that scales with r_max, they were 4.8e-6 apart
    m = [solve_ground_state(c.params, c.grid, c.plan, c.km).m_gs
         for c in (Ctx(7, -3.0, 512, 20.0), Ctx(7, -3.0, 512, 24.0))]
    assert abs(m[1] - m[0]) / m[0] < 1e-7, m


def _bessel_series_dilation(plan, u, nu_s):
    """u(nu_s r) from the Bessel series of u, the collocation interpolant
    sum_m c_m J_nu(k_m r) / r^{(d-2)/2}, zero beyond r_max."""
    p, g, k = plan.params, plan.grid, plan.k
    alpha = (p.d - 2) / 2
    c = np.linalg.solve(special.jv(p.nu, np.outer(g.r, k)), g.r**alpha * u)
    x = nu_s * g.r
    return np.where(x <= g.r_max,
                    special.jv(p.nu, np.outer(x, k)) @ c / x**alpha, 0.0)


def test_first_order_dilation_matches_resample(ctx512):
    # [DERIVED] for |nu - 1| <= 3e-7 the first-order step of the final
    # dilation, u + ln(nu) r u' with the grid's stencil derivative, agrees
    # with the Bessel-series dilation within 1e-12 relative in the quadrature
    # L^2 norm (observed 1.8e-13)
    grid = ctx512.grid
    Q = solve_ground_state(ctx512.params, grid, ctx512.plan, ctx512.km).Q
    dQ = radial_derivative(grid, ctx512.params.rho, Q)
    for nu in (1 + 3e-7, 1 - 3e-7, 1 + 1e-9):
        ref = _bessel_series_dilation(ctx512.plan, Q, nu)
        err = Q + np.log(nu) * grid.r * dQ - ref
        assert np.sqrt(np.sum(grid.w * err**2) / np.sum(grid.w * ref**2)) <= 1e-12, nu


@pytest.mark.parametrize("guess", ["gaussian", "sech"])
@pytest.mark.parametrize("ctx_name", ["ctx3", "ctx4"])
def test_iteration_from_the_guess_reaches_tolerance(request, ctx_name, guess):
    # [DERIVED] from either start field the iteration runs to TOL, not to
    # the cap, and the rescaled Q meets the default residual_tol
    ctx = request.getfixturevalue(ctx_name)
    opts = GroundStateOptions()
    res = solve_ground_state(ctx.params, ctx.grid, ctx.plan, ctx.km, opts,
                             init=_start(ctx, guess))
    assert res.residuals[-1] < ground_state.TOL
    assert res.residual < opts.residual_tol


def test_d5_scaling_anomaly_converges():
    # [DERIVED] the scaling anomaly 4(nu_final - 1) is a discretisation error
    # of the functionals, so at (5, -0.5, r_max 20) it must fall with n: by
    # at least 8x from n = 256 to 512 (25x on the exact sphere average; an
    # inexact kernel near the diagonal leaves a floor that does not shrink)
    anomaly = []
    for n in (256, 512):
        ctx = Ctx(5, -0.5, n, 20.0)
        res = solve_ground_state(ctx.params, ctx.grid, ctx.plan, ctx.km)
        anomaly.append(abs(4 * (res.nu_final - 1)))
    assert anomaly[1] <= anomaly[0] / 8, anomaly


@pytest.mark.parametrize("guess", ["gaussian", "sech"])
def test_solve_applies_la_four_times(monkeypatch, ctx3, guess):
    # [TRIVIAL] Petviashvili's iteration works on the modes, where L_a is
    # the diagonal k^2, and never applies L_a: a solve applies it exactly 4
    # times, however many iterates it takes (the last iterate's M and H, the
    # rescaled field, the returned Q, its EL residual)
    calls = []
    apply_la = ground_state.apply_la

    def counting(plan, v):
        calls.append(1)
        return apply_la(plan, v)

    for mod in (ground_state, sys.modules["hartreelab.functionals"]):
        monkeypatch.setattr(mod, "apply_la", counting)
    res = solve_ground_state(ctx3.params, ctx3.grid, ctx3.plan, ctx3.km,
                             init=_start(ctx3, guess))
    assert res.iterations >= 3
    assert len(calls) == 4


@pytest.mark.parametrize("c", [1e-7, 1e5])
def test_amplitude_of_guess_is_irrelevant(ctx3, gs3, c):
    # [DERIVED] the Petviashvili start maps c u to the iterate it maps u to
    # (S^{3/2} scales as c^{-3}, the nonlinear term as c^3), so a scaled
    # guess reaches the same M_gs
    init = gaussian_profile(ctx3.params, ctx3.grid, amplitude=c)
    res = solve_ground_state(ctx3.params, ctx3.grid, ctx3.plan, ctx3.km,
                             GroundStateOptions(residual_tol=1e-4), init=init)
    assert res.m_gs == pytest.approx(gs3.m_gs, rel=1e-12)


def _multi_bump(params, grid, rng):
    """A seeded positive guess: three r^{-rho} Gaussians of width 0.3-3 and a
    shell bump at r = 1-5, each with an amplitude of 0.2-2."""
    u = sum(gaussian_profile(params, grid, rng.uniform(0.3, 3), rng.uniform(0.2, 2))
            for _ in range(3))
    return u + shell_profile(params, grid, rng.uniform(1, 5), rng.uniform(0.3, 1),
                             rng.uniform(0.2, 2))


@pytest.mark.parametrize("d,a,r_max", [(3, -0.1, 12.0), (4, -0.5, 14.0),
                                       (5, -1.0, 20.0), (6, -1.0, 20.0),
                                       (7, -3.0, 20.0)])
def test_every_positive_guess_reaches_the_one_threshold(d, a, r_max):
    # [PAPER] every ground state has the same mass M_gs, so the solve must
    # reach it from any positive guess: from 10 seeded multi-bump guesses at
    # n = 256 each solve meets the default residual_tol with m_gs within
    # 1e-12 relative of the default start's, in at most 40 iterates
    # (observed: within 1.1e-15, in 16-29 iterates, d = 6 and 7 slowest;
    # 68-126 unmixed)
    c = Ctx(d, a, 256, r_max)
    ref = solve_ground_state(c.params, c.grid, c.plan, c.km).m_gs
    rng = np.random.default_rng(0)
    for i in range(10):
        res = solve_ground_state(c.params, c.grid, c.plan, c.km,
                                 init=_multi_bump(c.params, c.grid, rng))
        assert res.residual < GroundStateOptions().residual_tol, i
        assert res.m_gs == pytest.approx(ref, rel=1e-12), i
        assert res.iterations <= 40, i
