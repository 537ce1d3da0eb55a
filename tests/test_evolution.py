import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import Ctx
from hartreelab import (FitRejected, IntegratorConfig, Quantities, Trajectory,
                        concentration, evolve, fit_blowup, functionals,
                        pseudo_conformal_family, rotated_energy_check,
                        solve_ground_state, step, transform, virial)
from hartreelab.cli import _random_fields
from hartreelab import evolution
from hartreelab import grid as radial_grid
from hartreelab.evolution import _flow_matrix, _flows
from hartreelab.hartree import surface_area


def test_zero_data(ctx3):
    # [TRIVIAL] zero stays zero
    cfg = IntegratorConfig(dt=1e-2, t_end=0.1)
    traj = evolve(np.zeros(ctx3.grid.n, dtype=complex), cfg, ctx3.plan, ctx3.km)
    assert traj.stop_reason == "completed"
    assert all(q.M == 0 for q in traj.quantities)


def test_linear_flow_eigenmode(ctx3):
    # [DERIVED] nonlinearity disabled, mode m: phase rotation e^{+i k_m^2 dt}
    # only (sign fixed by the e^{-it} Q solitary-wave convention)
    plan = ctx3.plan
    m, dt = 4, 1e-2
    u = plan.Psi[:, m].astype(complex)
    v = _flow_matrix(plan, dt) @ u
    expected = np.exp(1j * plan.k[m]**2 * dt) * u
    assert np.max(np.abs(v - expected)) < 1e-12
    assert np.max(np.abs(np.abs(v) - np.abs(u))) < 1e-12   # modulus unchanged


@pytest.mark.parametrize("scheme", ["strang-split", "midpoint-relaxation"])
def test_mass_per_step(ctx3, gs3, scheme):
    # [PAPER] |M(after) - M(before)|/M < 1e-13 per step
    u = gs3.Q.astype(complex)
    q0 = functionals(u, ctx3.plan, ctx3.km)
    v, _ = step(u, 1e-3, ctx3.plan, ctx3.km, scheme, None, _flows(ctx3.plan, 1e-3, scheme))
    q1 = functionals(v, ctx3.plan, ctx3.km)
    assert abs(q1.M - q0.M) / q0.M < 1e-13


def test_solitary_wave(ctx3, gs3):
    # [DERIVED] e^{-it} Q is a near-solution: direct simulation vs the phase
    # rotation; H stays in a narrow band
    cfg = IntegratorConfig(dt=1e-3, t_end=0.5, output_stride=100)
    traj = evolve(gs3.Q.astype(complex), cfg, ctx3.plan, ctx3.km)
    u_end = traj.fields[-1]
    exact = np.exp(-1j * 0.5) * gs3.Q
    num = np.sqrt(np.sum(ctx3.grid.w * np.abs(u_end - exact)**2))
    den = np.sqrt(np.sum(ctx3.grid.w * np.abs(exact)**2))
    assert num / den < 1e-3
    hs = [q.H for q in traj.quantities]
    assert max(hs) - min(hs) < 1e-4 * hs[0]


def _subcritical(c):
    g = c.grid
    return (0.45 * g.r**(-c.params.rho) * np.exp(-g.r**2 / 2)
            * np.exp(0.3j * np.tanh(g.r))).astype(complex)


def _all_nan(phi):
    return np.full(phi.shape, np.nan)


def _one_inf(phi):
    phi = phi.copy()
    phi[len(phi) // 2] = np.inf
    return phi


@pytest.mark.parametrize("poison", [_all_nan, _one_inf], ids=["all-nan", "one-inf"])
def test_non_finite_field_stops_the_run(ctx3, monkeypatch, poison):
    # [TRIVIAL] evolve stops with blowup-suspected at the step whose field
    # turns non-finite: a potential that is non-finite from its 5th call (the
    # end rotation of step 4; step 1 forms two) stops the run at t = 4 dt,
    # with only the initial sample recorded.  One +inf entry is enough: it
    # makes one NaN entry of the field, and the finite check is the field's
    # sum.  numpy reports the cos and sin of inf as an invalid value
    calls = []
    original = evolution.potential

    def failing(km, v):
        calls.append(1)
        phi = original(km, v)
        return phi if len(calls) < 5 else poison(phi)

    monkeypatch.setattr(evolution, "potential", failing)
    cfg = IntegratorConfig(dt=1e-3, t_end=0.01)
    if poison is _one_inf:
        with pytest.warns(RuntimeWarning, match="invalid value"):
            traj = evolve(_subcritical(ctx3), cfg, ctx3.plan, ctx3.km)
    else:
        traj = evolve(_subcritical(ctx3), cfg, ctx3.plan, ctx3.km)
    assert traj.stop_reason == "blowup-suspected"
    assert traj.stop_time == pytest.approx(0.004)
    assert traj.times == [0.0]


def test_rotation_matches_the_complex_exp(ctx3, gs3):
    # [DERIVED] _rotation writes cos and sin of theta = -(dt/2) Phi, which
    # is the complex exp of i theta: within 1 ulp of np.exp(-0.5j dt Phi)
    # in each component (measured: 0, bit-identical with glibc), on the
    # ground state's potential, on that of a narrow pseudo-conformal
    # snapshot like the last `blowup` samples (scale 0.05), and on random
    # Phi with |theta| up to 10.  A NaN or +-inf in Phi gives a non-finite
    # entry there, and leaves the others as they were
    rng = np.random.default_rng(11)
    narrow = pseudo_conformal_family(gs3.Q, 1.0, 0.0, 0.95, ctx3.plan)
    cases = [(evolution.potential(ctx3.km, gs3.Q), dt) for dt in (1e-3, 1e-4)]
    cases += [(evolution.potential(ctx3.km, narrow), dt) for dt in (2e-4, 5e-5)]
    cases += [(rng.uniform(-2e4, 2e4, 4096), 1e-3)]
    for Phi, dt in cases:
        got, want = evolution._rotation(Phi, dt), np.exp(-0.5j * dt * Phi)
        for a, b in ((got.real, want.real), (got.imag, want.imag)):
            assert np.all(np.abs(a - b) <= np.spacing(np.abs(b)))
    Phi = rng.uniform(0, 50, 8)
    for bad in (np.nan, np.inf, -np.inf):
        Phi_bad = Phi.copy()
        Phi_bad[3] = bad
        if np.isnan(bad):
            got = evolution._rotation(Phi_bad, 1e-3)
        else:
            with pytest.warns(RuntimeWarning, match="invalid value"):
                got = evolution._rotation(Phi_bad, 1e-3)
        assert not np.isfinite(got[3])
        assert np.array_equal(np.delete(got, 3), np.delete(evolution._rotation(Phi, 1e-3), 3))


@pytest.mark.parametrize("scheme", ["strang-split", "midpoint-relaxation"])
def test_evolve_matches_one_shot_steps(ctx3, scheme):
    # [DERIVED] evolve, which carries the end rotation, matches a loop of
    # steps that each recompute the rotation at every sample (300 steps,
    # 6 samples) to 1e-12 relative; the loop is given the run's flow
    # matrices, which cost hundreds of steps to form.  With t_end = 0 the
    # loop runs zero times: one sample, the initial field, and a completed
    # stop at t = 0
    dt, stride, nsteps = 1e-4, 60, 300
    u = _subcritical(ctx3)
    traj = evolve(u, IntegratorConfig(dt=dt, t_end=0.0, scheme=scheme), ctx3.plan, ctx3.km)
    assert traj.times == [0.0] and np.array_equal(traj.fields[0], u)
    assert (traj.stop_reason, traj.stop_time, traj.stop_value) == ("completed", 0.0, None)
    traj = evolve(u, IntegratorConfig(dt=dt, t_end=nsteps * dt, scheme=scheme,
                                      output_stride=stride), ctx3.plan, ctx3.km)
    assert traj.stop_reason == "completed" and len(traj.fields) == 6
    flows = _flows(ctx3.plan, dt, scheme)
    ref = [u]
    for i in range(1, nsteps + 1):
        u, _ = step(u, dt, ctx3.plan, ctx3.km, scheme, None, flows)
        if i % stride == 0:
            ref.append(u)
    for got, want in zip(traj.fields, ref):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("scheme", ["strang-split", "midpoint-relaxation"])
def test_odd_n_evolve_meets_the_mass_gate(scheme):
    # [PAPER] at odd n the potential takes the real product (no column
    # pairs); the acceptance-04 run to t = 1 at dt = 1e-4 on n = 65 keeps its
    # mass to 1e-11 relative
    from conftest import Ctx
    c = Ctx(3, -0.1, 65, 12.0)
    traj = evolve(_subcritical(c), IntegratorConfig(dt=1e-4, t_end=1.0, scheme=scheme,
                                                    output_stride=2000), c.plan, c.km)
    assert traj.stop_reason == "completed"
    q0, qT = traj.quantities[0], traj.quantities[-1]
    assert abs(qT.M - q0.M) / q0.M < 1e-11


def test_one_potential_per_strang_step(ctx3, monkeypatch):
    # [TRIVIAL] a strang-split step reuses the potential that ended the step
    # before: one call per step, one more for the first step, and the calls
    # the diagnostic samples make
    calls = []
    original = evolution.potential

    def counting(km, v):
        calls.append(1)
        return original(km, v)

    for key, mod in list(sys.modules.items()):
        if key.startswith("hartreelab") and getattr(mod, "potential", None) is original:
            monkeypatch.setattr(mod, "potential", counting)
    u = _subcritical(ctx3)
    functionals(u, ctx3.plan, ctx3.km)
    virial(u, ctx3.plan)
    per_sample = len(calls)
    assert per_sample >= 1
    calls.clear()
    nsteps = 40
    traj = evolve(u, IntegratorConfig(dt=1e-4, t_end=nsteps * 1e-4, output_stride=10),
                  ctx3.plan, ctx3.km)
    assert len(traj.times) == 5
    assert len(calls) == nsteps + 1 + per_sample * len(traj.times)


@pytest.mark.parametrize("name", ["ctx3", "ctx4"])
def test_flow_matrix_matches_transforms(name, request):
    # [DERIVED] one product with U_tau = Psi diag(e^{i k^2 tau}) Psi^T W equals
    # the forward transform, the phase multiply and the inverse transform, to
    # 1e-11 max-relative on seeded complex fields
    c = request.getfixturevalue(name)
    fields = _random_fields(c.params, c.grid, np.random.default_rng(11), 3,
                            complex_valued=True)
    for tau in (5e-5, 1e-4, 1e-2):
        flow = _flow_matrix(c.plan, tau)
        phase = np.exp(1j * c.plan.k**2 * tau)
        for u in fields:
            want = transform._matvec(c.plan.Psi, phase * transform._forward(c.plan, u))
            got = flow @ u
            assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def test_flow_matrix_keeps_mass(ctx3):
    # [TRIVIAL] U_tau is unitary in the w-metric: one application keeps the
    # discrete mass sum w |u|^2 to 2e-15 relative
    w = ctx3.grid.w
    fields = _random_fields(ctx3.params, ctx3.grid, np.random.default_rng(5), 4,
                            complex_valued=True)
    for tau in (5e-5, 1e-4):
        flow = _flow_matrix(ctx3.plan, tau)
        for u in fields:
            m0 = np.sum(w * np.abs(u)**2)
            m1 = np.sum(w * np.abs(flow @ u)**2)
            assert abs(m1 - m0) <= 2e-15 * m0


def test_flow_matrix_built_in_row_blocks():
    # [TRIVIAL] U_dt is formed a block of rows at a time: the traced peak of
    # the strang-split flows at n = 512 stays within U, one complex n x n
    # array, plus half a real n x n array for the row blocks; README's
    # evolution row describes the build
    c = Ctx(3, -0.1, 512, 12.0)
    _flows(c.plan, 1e-4, "strang-split")
    tracemalloc.start()
    try:
        _flows(c.plan, 1e-4, "strang-split")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * c.grid.n**2 + 2**20, (peak - 16 * c.grid.n**2) / 2**20


def test_flow_matrices_formed_once_per_run(ctx3, monkeypatch):
    # [TRIVIAL] evolve forms U_dt once (strang-split) or U_dt and U_{dt/2}
    # once each (midpoint-relaxation), and no step applies a plan matrix: each
    # linear flow is one product with a matrix of the run, and the only plan
    # products are the two of each sample's L_a u
    built, products = [], []
    monkeypatch.setattr(evolution, "_flow_matrix",
                        lambda plan, tau: built.append(tau) or _flow_matrix(plan, tau))
    matvec = transform._matvec
    monkeypatch.setattr(transform, "_matvec",
                        lambda A, v: products.append(1) or matvec(A, v))
    dt = 1e-4
    for scheme, taus in (("strang-split", [dt]), ("midpoint-relaxation", [dt, dt / 2])):
        built.clear()
        products.clear()
        traj = evolve(_subcritical(ctx3), IntegratorConfig(
            dt=dt, t_end=40 * dt, scheme=scheme, output_stride=10), ctx3.plan, ctx3.km)
        assert traj.stop_reason == "completed" and len(traj.times) == 5
        assert built == taus, scheme
        assert len(products) == 2 * len(traj.times), scheme


def test_one_la_per_diagnostic_sample(ctx3, monkeypatch):
    # [TRIVIAL] a diagnostic sample forms L_a u once, for both H and Gamma';
    # the steps themselves never apply L_a
    calls = []
    original = transform.apply_la

    def counting(plan, v):
        calls.append(1)
        return original(plan, v)

    for key, mod in list(sys.modules.items()):
        if key.startswith("hartreelab") and getattr(mod, "apply_la", None) is original:
            monkeypatch.setattr(mod, "apply_la", counting)
    for scheme in ("strang-split", "midpoint-relaxation"):
        calls.clear()
        traj = evolve(_subcritical(ctx3), IntegratorConfig(
            dt=1e-4, t_end=40e-4, scheme=scheme, output_stride=10), ctx3.plan, ctx3.km)
        assert len(traj.times) == 5
        assert len(calls) == len(traj.times), scheme


def test_shared_la_artifacts_bit_identical(tmp_path, monkeypatch):
    # [TRIVIAL] trajectory.csv and summary.json of an evolve run are
    # bit-identical to those of a run whose samples call functionals and
    # virial each with its own L_a u: the shared product is the same product
    from hartreelab.cli import parse_config, run_scenario
    text = ("grid.n = 64\ngrid.r_max = 10.0\nscenario = evolve\n"
            "init.amplitude = 0.4\nintegrator.dt = 1e-3\nintegrator.t_end = 0.02\n"
            "integrator.output_stride = 2\nseed = 3\n")

    def run(tag):
        out = str(tmp_path / tag)
        run_scenario(parse_config(text, [f"output.dir = {out}"]), out)
        blobs = []
        for name in ("summary.json", "trajectory.csv"):
            with open(f"{out}/{name}", "rb") as fh:
                blobs.append(fh.read().replace(out.encode(), b"X"))
        return blobs

    shared = run("shared")
    fn, vir = evolution.functionals, evolution.virial
    monkeypatch.setattr(evolution, "functionals",
                        lambda u, plan, km, lau=None: fn(u, plan, km))
    monkeypatch.setattr(evolution, "virial",
                        lambda u, plan, lau=None: vir(u, plan))
    assert run("separate") == shared


@pytest.mark.parametrize("scheme", ["strang-split", "midpoint-relaxation"])
def test_step_with_carried_state_is_bit_identical(ctx3, scheme):
    # [TRIVIAL] given the rotation a one-shot step forms itself, step
    # returns the same bits as without it
    dt = 1e-4
    u = _subcritical(ctx3)
    rot = np.exp(-0.5j * dt * evolution.potential(ctx3.km, u)) \
        if scheme == "strang-split" else None
    flows = _flows(ctx3.plan, dt, scheme)
    a, rot_a = step(u, dt, ctx3.plan, ctx3.km, scheme, None, flows)
    b, rot_b = step(u, dt, ctx3.plan, ctx3.km, scheme, rot, flows)
    assert np.array_equal(a, b)
    if scheme == "strang-split":
        assert np.array_equal(rot_a, rot_b)
    else:
        assert rot_a is None and rot_b is None


def test_phase_equivariance(ctx3, gs3):
    # [TRIVIAL] evolving e^{i theta0} u0 equals e^{i theta0} x evolving u0
    u = gs3.Q.astype(complex) * np.exp(-(ctx3.grid.r - 1) ** 2 / 9)
    th = 0.8
    flows = _flows(ctx3.plan, 1e-3, "strang-split")
    a, _ = step(u * np.exp(1j * th), 1e-3, ctx3.plan, ctx3.km, "strang-split", None, flows)
    b = step(u, 1e-3, ctx3.plan, ctx3.km, "strang-split", None, flows)[0] * np.exp(1j * th)
    assert np.max(np.abs(a - b)) < 1e-13 * max(1.0, np.max(np.abs(b)))


def test_energy_drift_second_order(ctx3):
    # [PAPER] |E(t)-E(0)|/|E(0)| = O(dt^2): halving dt reduces drift ~4x
    g = ctx3.grid
    u0 = (0.45 * g.r**(-ctx3.params.rho) * np.exp(-g.r**2 / 2)).astype(complex)
    drifts = []
    for dt in (2e-3, 1e-3):
        cfg = IntegratorConfig(dt=dt, t_end=0.5, output_stride=10**9)
        traj = evolve(u0, cfg, ctx3.plan, ctx3.km)
        q0, qT = traj.quantities[0], traj.quantities[-1]
        drifts.append(abs(qT.E - q0.E) / abs(q0.E))
    assert 3.0 < drifts[0] / drifts[1] < 5.0


def test_virial_real_field(ctx3, gs3):
    # [TRIVIAL] real u -> Gamma' = 0, and an evolve sample of Q raises no
    # boundary flag
    gamma, gamma_prime = virial(gs3.Q.astype(complex), ctx3.plan)
    assert abs(gamma_prime) < 1e-12 * max(1.0, gamma)
    traj = evolve(gs3.Q, IntegratorConfig(t_end=0.0), ctx3.plan, ctx3.km)
    assert traj.boundary_flags == [False]


def test_virial_gaussian(ctx3_free):
    # [DERIVED] u = e^{-r^2/2}, d=3: Gamma = (3/2) pi^{3/2}
    u = np.exp(-ctx3_free.grid.r**2 / 2).astype(complex)
    gamma, _ = virial(u, ctx3_free.plan)
    assert gamma == pytest.approx(1.5 * math.pi**1.5, rel=1e-10)


def test_virial_boundary_flag(ctx3):
    # [TRIVIAL] mass near the boundary raises the flag of an evolve sample
    g = ctx3.grid
    u = np.exp(-(g.r - g.r_max)**2).astype(complex)
    traj = evolve(u, IntegratorConfig(t_end=0.0), ctx3.plan, ctx3.km)
    assert traj.boundary_flags == [True]


@pytest.mark.parametrize("name", ["ctx3", "ctx4"])
def test_gamma_prime_is_derivative_of_discrete_gamma(name, request, monkeypatch):
    # [DERIVED] Gamma' is the time derivative of the discrete Gamma under the
    # discrete flow (the nonlinear rotation leaves |u| alone, so the linear
    # flow alone moves Gamma): Richardson centred difference within 1e-9
    # relative; and evolve never takes a radial derivative
    c = request.getfixturevalue(name)
    g = c.grid
    u = _random_fields(c.params, g, np.random.default_rng(7), 1, complex_valued=True)[0]

    def gamma(t):
        ut = _flow_matrix(c.plan, t) @ u
        return surface_area(g.d) * float(np.sum(g.w * g.r**2 * np.abs(ut)**2))

    def centred(delta):
        return (gamma(delta) - gamma(-delta)) / (2 * delta)

    ref = (4 * centred(5e-4) - centred(1e-3)) / 3
    assert abs(virial(u, c.plan)[1] - ref) <= 1e-9 * abs(ref)

    calls = []

    def counting(grid, rho, v):
        calls.append(1)
        return radial_grid.radial_derivative(grid, rho, v)

    for key, mod in list(sys.modules.items()):
        if key.startswith("hartreelab") and \
                getattr(mod, "radial_derivative", None) is radial_grid.radial_derivative:
            monkeypatch.setattr(mod, "radial_derivative", counting)
    evolve(u, IntegratorConfig(dt=1e-3, t_end=5e-3, output_stride=2), c.plan, c.km)
    assert calls == []


def test_pc_family_mass_and_free_energy(ctx3, gs3):
    # [TRIVIAL] M(family(t)) = M_gs for all t (up to the dilation's
    # interpolation), also past T*/2, where the dilated profile must be zero
    # beyond r_max; [PAPER] E(family(t) e^{-i r^2/(4(T*-t))}) = 0
    T = 1.0
    for t in (0.0, 0.1, 0.2, 0.3, 0.5, 0.6):
        u = pseudo_conformal_family(gs3.Q, T, 0.3, t, ctx3.plan)
        q = functionals(u, ctx3.plan, ctx3.km)
        assert q.M == pytest.approx(gs3.m_gs, rel=1e-5)
        s = T - t
        v = u * np.exp(-1j * ctx3.grid.r**2 / (4 * s))
        qv = functionals(v, ctx3.plan, ctx3.km)
        assert abs(qv.E) < 1e-4 * qv.H


def test_pc_family_evolution_consistency(ctx3, gs3):
    # [DERIVED] evolve family(t0) to t1 and compare against family(t1):
    # relative L^2 mismatch < 1e-3 at desk resolution
    T, t0, t1 = 1.0, 0.0, 0.2
    u0 = pseudo_conformal_family(gs3.Q, T, 0.0, t0, ctx3.plan)
    cfg = IntegratorConfig(dt=2e-4, t_end=t1 - t0, output_stride=10**9)
    traj = evolve(u0, cfg, ctx3.plan, ctx3.km)
    exact = pseudo_conformal_family(gs3.Q, T, 0.0, t1, ctx3.plan)
    w = ctx3.grid.w
    num = np.sqrt(np.sum(w * np.abs(traj.fields[-1] - exact)**2))
    den = np.sqrt(np.sum(w * np.abs(exact)**2))
    assert num / den < 1e-3


def test_pc_family_domain_error(ctx3, gs3):
    # [TRIVIAL] t >= T_star rejected
    with pytest.raises(ValueError):
        pseudo_conformal_family(gs3.Q, 1.0, 0.0, 1.0, ctx3.plan)


def _synthetic_traj(ts, hs, gammas):
    traj = Trajectory()
    traj.times = list(ts)
    traj.quantities = [Quantities(M=1.0, H=h, E=0.0, L_V=0.0, J=None) for h in hs]
    traj.gamma = list(gammas)
    return traj


def test_fit_blowup_exact_series():
    # [TRIVIAL] H(t) = 4 (1-t)^{-2}, Gamma = 3 (1-t)^2 -> T* = 1, p = 2 to
    # round-off
    ts = np.linspace(0.0, 0.95, 200)
    traj = _synthetic_traj(ts, 4.0 / (1.0 - ts)**2, 3.0 * (1.0 - ts)**2)
    T, p = fit_blowup(traj)
    assert T == pytest.approx(1.0, abs=1e-8)
    assert p == pytest.approx(2.0, abs=1e-6)


def test_fit_blowup_exact_pseudo_conformal_law():
    # [PAPER] on the exact solution H - E = C (T* - t)^{-2} and
    # Gamma = 8 E (T* - t)^2: at (3, -0.1), n = 512, sampled as the `blowup`
    # run samples (t = 0, 0.01, ..., 0.9), the fit gives p within 1e-3 of 2
    # and T* within 1e-4 of 1 (a fit of H itself gave p = 1.8875,
    # T* = 0.9936)
    c = Ctx(3, -0.1, 512, 12.0)
    Q = solve_ground_state(c.params, c.grid, c.plan, c.km).Q
    traj = Trajectory()
    traj.times = [0.01 * i for i in range(91)]
    fields = [pseudo_conformal_family(Q, 1.0, 0.0, t, c.plan) for t in traj.times]
    traj.quantities = [functionals(u, c.plan, c.km) for u in fields]
    traj.gamma = [virial(u, c.plan)[0] for u in fields]
    T, p = fit_blowup(traj)
    assert abs(p - 2) < 1e-3
    assert abs(T - 1) < 1e-4


def test_fit_blowup_rejections():
    # [TRIVIAL] non-monotone H tail, short series, H below E_0, a Gamma that
    # does not decrease and a sqrt(Gamma) line that reaches zero before the
    # last sample are rejected
    ts = np.linspace(0, 1, 50)
    hs = 4.0 / (1.0 - 0.8 * ts)**2
    gs = (1.0 - 0.8 * ts)**2
    bad_h = hs.copy()
    bad_h[-1] = bad_h[-2] * 0.5
    with pytest.raises(FitRejected):
        fit_blowup(_synthetic_traj(ts, bad_h, gs))
    with pytest.raises(FitRejected):
        fit_blowup(_synthetic_traj(ts[:5], hs[:5], gs[:5]))
    traj = _synthetic_traj(ts, hs, gs)
    traj.quantities[0] = dataclasses.replace(traj.quantities[0], E=5.0)  # H - E_0 < 0
    with pytest.raises(FitRejected, match="initial energy"):
        fit_blowup(traj)
    flat = gs.copy()
    flat[-1] = flat[-2]
    with pytest.raises(FitRejected, match="strictly decreasing"):
        fit_blowup(_synthetic_traj(ts, hs, flat))
    # sqrt(Gamma) = e^{-4t} is convex: its line reaches zero at t = 0.81 < 1
    with pytest.raises(FitRejected, match="not past the last sample"):
        fit_blowup(_synthetic_traj(ts, hs, np.exp(-8.0 * ts)))


def test_fit_blowup_rejects_T_star_past_the_virial_bound(ctx3, gs3):
    # [PAPER] above threshold E_0 < 0, and Gamma'' = 16 E forces Gamma to
    # zero by T_Gamma, the positive root of Gamma_0 + Gamma_0' t + 8 E_0 t^2:
    # on 1.10 Q at (3, -0.1, 256), dt = 2e-4, the sqrt(Gamma) line reaches
    # zero at T* = 3.38 (p = 7.8), past T_Gamma = 1.612, and is rejected
    traj = evolve(1.10 * gs3.Q.astype(complex), IntegratorConfig(dt=2e-4, t_end=2.0),
                  ctx3.plan, ctx3.km)
    assert traj.stop_reason == "blowup-resolved-limit"
    assert traj.quantities[0].E < 0
    with pytest.raises(FitRejected, match=r"virial bound T_Gamma = 1\.612"):
        fit_blowup(traj)


@pytest.mark.parametrize("d, a", [(6, -1.0), (7, -3.0)])
def test_d_ge_6_evolution_conserves_the_reported_mass(d, a):
    # [PAPER] the propagator's metric is the grid's, so in d >= 6 too a
    # gaussian (amplitude 0.3, n = 256, dt = 1e-3 to t = 0.5) keeps the mass
    # M reports to 1e-10 relative (1.5e-8 / 5.1e-7 when the plan clipped the
    # negative origin weight to another metric)
    c = Ctx(d, a, 256, 12.0)
    u0 = 0.3 * c.grid.r**(-c.params.rho) * np.exp(-c.grid.r**2 / 2)
    traj = evolve(u0, IntegratorConfig(dt=1e-3, t_end=0.5), c.plan, c.km)
    assert traj.stop_reason == "completed"
    M = np.array([q.M for q in traj.quantities])
    assert np.max(np.abs(M - M[0])) / M[0] < 1e-10


def test_concentration_limits(ctx3, gs3):
    # [TRIVIAL] lam >= r_max -> M(u); lam -> 0 -> 0; monotone in lam
    g = ctx3.grid
    u = gs3.Q.astype(complex)
    q = functionals(u, ctx3.plan, ctx3.km)
    assert concentration(u, g.r_max, g) == pytest.approx(q.M, rel=1e-12)
    assert concentration(u, 1e-9, g) < 1e-10
    vals = [concentration(u, lam, g) for lam in (0.5, 1.0, 2.0, 5.0)]
    assert np.all(np.diff(vals) > 0)


def test_concentration_radius_edge_cases(ctx3, gs3):
    # [TRIVIAL] lam <= 0 (a blow-up window past the fitted T*) encloses
    # nothing, lam beyond r_max encloses the whole mass, NaN is an error
    g = ctx3.grid
    u = gs3.Q.astype(complex)
    assert concentration(u, 0.0, g) == 0.0
    assert concentration(u, -1.0, g) == 0.0
    assert concentration(u, 2 * g.r_max, g) == concentration(u, g.r_max, g)
    with pytest.raises(ValueError):
        concentration(u, math.nan, g)


def test_rotated_energy_basics(ctx3, gs3):
    # [TRIVIAL] s = 0 -> both sides E(u); real u -> linear coefficient 0,
    # read as the right sides at s = +-1/2, which differ by 2 s b = b
    g = ctx3.grid
    r0 = 3.0
    th = np.exp(-(g.r - r0)**2)
    thp = 2 * (r0 - g.r) * th
    rep0, rep_p, rep_m = (rotated_energy_check(gs3.Q.astype(complex), th, s, ctx3.plan,
                                               ctx3.km, theta_prime=thp)
                          for s in (0.0, 0.5, -0.5))
    assert rep0.mismatch < 1e-12
    assert abs(rep_p.rhs - rep_m.rhs) < 1e-12


def test_rotated_energy_identity_complex(ctx3, gs3):
    # [PAPER] E(u e^{is theta}) = E(u) + s b + (s^2/2) c with exact theta'
    g = ctx3.grid
    u = gs3.Q.astype(complex) * np.exp(1j * 0.5 * np.tanh(g.r))
    r0 = 3.0
    th = np.exp(-(g.r - r0)**2)
    thp = 2 * (r0 - g.r) * th
    rep = rotated_energy_check(u, th, 0.4, ctx3.plan, ctx3.km, theta_prime=thp)
    scale = max(abs(rep.lhs), abs(rep.rhs), 1.0)
    assert rep.mismatch < 1e-7 * scale


def test_bad_scheme_and_config(ctx3):
    # [TRIVIAL] config validation; evolve runs round(t_end/dt) steps, so an
    # end time that is not a whole number of steps is rejected, not moved;
    # a step given an unknown scheme raises too
    for dt in (-1e-3, math.inf, math.nan):
        with pytest.raises(ValueError, match="dt"):
            IntegratorConfig(dt=dt, t_end=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=1e-3, t_end=1.0, scheme="euler")
    for dt, t_end in ((3e-3, 0.01), (1e-3, -1.0), (1e-3, math.inf)):
        with pytest.raises(ValueError, match="t_end"):
            IntegratorConfig(dt=dt, t_end=t_end)
    IntegratorConfig(dt=2e-4, t_end=1.0 - 0.8)     # round-off is tolerated
    with pytest.raises(ValueError, match="unknown scheme 'euler'"):
        step(np.zeros(ctx3.grid.n, dtype=complex), 1e-3, ctx3.plan, ctx3.km,
             "euler", None, ())
