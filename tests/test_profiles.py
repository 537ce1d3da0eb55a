import math

import numpy as np
import pytest

from hartreelab import functionals, make_initial_data
from hartreelab.profiles import (PROFILE_NAMES, ProfileOptions, gaussian_profile,
                                 shell_profile)


def test_gaussian_envelope(ctx3):
    # [TRIVIAL] carries the r^{-rho} origin envelope and the stated formula
    g, p = ctx3.grid, ctx3.params
    u = gaussian_profile(p, g, sigma=2.0, amplitude=0.5)
    expected = 0.5 * g.r**(-p.rho) * np.exp(-g.r**2 / 8)
    assert np.array_equal(u, expected)
    with pytest.raises(ValueError):
        gaussian_profile(p, g, sigma=0.0)


def test_ground_state_profile_mass(ctx3, gs3):
    # [DERIVED] mu = 0.9 gives mass 0.81 M(Q); M(Q) matches M_gs to the
    # discrete Pohozaev tolerance
    u = make_initial_data("ground-state", {"mu": 0.9}, ctx3.params, ctx3.grid,
                          Q=gs3.Q)
    q = functionals(u, ctx3.plan, ctx3.km)
    q0 = functionals(gs3.Q, ctx3.plan, ctx3.km)
    assert q.M == pytest.approx(0.81 * q0.M, rel=1e-12)
    assert q.M == pytest.approx(0.81 * gs3.m_gs, rel=1e-4)


def test_shell_profile(ctx3):
    # [TRIVIAL]
    g = ctx3.grid
    u = shell_profile(ctx3.params, g, s0=3.0, width=0.5, amplitude=2.0)
    assert np.max(u) == pytest.approx(2.0, rel=5e-3)   # nearest node to s0
    assert g.r[np.argmax(u)] == pytest.approx(3.0, abs=g.r_max / g.n)
    with pytest.raises(ValueError):
        shell_profile(ctx3.params, g, s0=-1.0, width=0.5)


def test_dispatcher(ctx3, gs3):
    # [TRIVIAL] all four names reachable; defaults applied; unknown rejected
    p, g = ctx3.params, ctx3.grid
    for name in PROFILE_NAMES:
        u = make_initial_data(name, {}, p, g, plan=ctx3.plan, Q=gs3.Q)
        assert u.shape == (g.n,)
        assert np.all(np.isfinite(u))
    assert np.array_equal(make_initial_data("gaussian", {"sigma": 2.0}, p, g),
                          gaussian_profile(p, g, sigma=2.0))
    with pytest.raises(ValueError, match="unknown profile"):
        make_initial_data("vortex", {}, p, g)


def test_dispatcher_requires_ground_state(ctx3):
    # [TRIVIAL] ground-state-based profiles demand Q (and the plan)
    p, g = ctx3.params, ctx3.grid
    with pytest.raises(ValueError, match="ground state"):
        make_initial_data("ground-state", {}, p, g)
    with pytest.raises(ValueError, match="ground state"):
        make_initial_data("pseudo-conformal", {}, p, g)
    with pytest.raises(ValueError, match="transform plan"):
        make_initial_data("pseudo-conformal", {}, p, g, Q=np.ones(g.n))


def test_profile_options_name_every_failing_field():
    # [TRIVIAL] one line per bad field, each opening with the field's name;
    # t0 is checked against T_star only once T_star itself is good
    with pytest.raises(ValueError) as exc:
        ProfileOptions(sigma=0.0, amplitude=math.inf, t0=1.0, width=math.nan)
    assert sorted(line.split(" must")[0] for line in str(exc.value).splitlines()) == \
        ["amplitude", "sigma", "t0", "width"]
    with pytest.raises(ValueError) as exc:
        ProfileOptions(T_star=0.0, t0=0.5)
    assert str(exc.value) == "T_star must be positive and finite, got 0.0"
    with pytest.raises(TypeError):
        make_initial_data("gaussian", {"sigmaa": 2.0}, None, None)


def test_pseudo_conformal_is_complex(ctx3, gs3):
    # [TRIVIAL] the blow-up snapshot carries the quadratic chirp
    u = make_initial_data("pseudo-conformal", {"T_star": 2.0}, ctx3.params,
                          ctx3.grid, plan=ctx3.plan, Q=gs3.Q)
    assert np.iscomplexobj(u)
    assert np.max(np.abs(u.imag)) > 0
