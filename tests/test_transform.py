import numpy as np
import pytest

from conftest import random_fields
from hartreelab import build_grid, build_plan, make_params
from hartreelab.transform import (apply_la, radial_derivative, resample,
                                  transform_forward, transform_inverse)


def smooth_field(params, grid, rng=None):
    r = grid.r
    u = r**(-params.rho) * np.exp(-r**2 / 2)
    if rng is not None:
        u = u * (1 + 0.3 * np.sin(rng.uniform(1, 3) * r) * np.exp(-r))
    return u


def test_zero_field(ctx3):
    # [TRIVIAL] zero in, zero out
    z = np.zeros(ctx3.grid.n)
    assert np.all(transform_forward(ctx3.plan, z) == 0)
    assert np.all(transform_inverse(ctx3.plan, z) == 0)


def test_lowest_mode_unit_coefficient(ctx3):
    # [TRIVIAL] the lowest discrete mode maps to e_1 (orthonormal basis)
    plan = ctx3.plan
    mode0 = plan.Psi[:, 0]
    c = transform_forward(plan, mode0)
    e1 = np.zeros(plan.grid.n)
    e1[0] = 1.0
    assert np.max(np.abs(c - e1)) < 1e-12


def test_round_trip(ctx3):
    # [DERIVED] inverse(forward(u)) = u within 1e-10 relative
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = smooth_field(ctx3.params, ctx3.grid, rng)
        v = transform_inverse(ctx3.plan, transform_forward(ctx3.plan, u))
        assert np.linalg.norm(v - u) / np.linalg.norm(u) < 1e-10


def test_parseval(ctx3):
    # [DERIVED] sum w_j |u_j|^2 = sum_m |c_m|^2 (orthonormal modes)
    u = smooth_field(ctx3.params, ctx3.grid)
    c = transform_forward(ctx3.plan, u)
    lhs = float(np.sum(ctx3.grid.w * np.abs(u)**2))
    assert float(np.sum(np.abs(c)**2)) == pytest.approx(lhs, rel=1e-9)


def test_apply_la_gaussian_free_case():
    # [DERIVED] a=0, d=3: -Laplacian e^{-r^2/2} = (3 - r^2) e^{-r^2/2}
    p = make_params(3, 0.0)
    g = build_grid(3, 256, 12.0)
    plan = build_plan(p, g)
    u = np.exp(-g.r**2 / 2)
    lau = apply_la(plan, u)
    exact = (3 - g.r**2) * np.exp(-g.r**2 / 2)
    assert np.max(np.abs(lau - exact)) < 1e-6


def test_apply_la_eigenmode(ctx3):
    # [TRIVIAL] diagonality: mode m maps to k_m^2 times itself
    plan = ctx3.plan
    m = 3
    mode = plan.Psi[:, m]
    lau = apply_la(plan, mode)
    assert np.max(np.abs(lau - plan.k[m]**2 * mode)) < 1e-9 * plan.k[m]**2


def test_apply_la_linearity(ctx3):
    # [TRIVIAL]
    rng = np.random.default_rng(1)
    u = smooth_field(ctx3.params, ctx3.grid, rng)
    v = smooth_field(ctx3.params, ctx3.grid, rng)
    lhs = apply_la(ctx3.plan, 2.0 * u - 0.5 * v)
    rhs = 2.0 * apply_la(ctx3.plan, u) - 0.5 * apply_la(ctx3.plan, v)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_self_adjoint_positive(ctx3):
    # [PAPER] L_a is self-adjoint and positive for a > -((d-2)/2)^2
    rng = np.random.default_rng(2)
    w = ctx3.grid.w
    for _ in range(10):
        u = smooth_field(ctx3.params, ctx3.grid, rng)
        v = smooth_field(ctx3.params, ctx3.grid, rng) * np.cos(ctx3.grid.r)
        lu, lv = apply_la(ctx3.plan, u), apply_la(ctx3.plan, v)
        a = float(np.sum(w * lu * v))
        b = float(np.sum(w * u * lv))
        scale = max(abs(a), abs(b), 1e-30)
        assert abs(a - b) / scale < 1e-9
        assert float(np.sum(w * u * lu)) > 0


def test_spectral_convergence():
    # [DERIVED] doubling n reduces the apply_La error on the Gaussian by >= 10x
    p = make_params(3, 0.0)
    errs = []
    for n in (64, 128, 256):
        g = build_grid(3, n, 12.0)
        plan = build_plan(p, g)
        u = np.exp(-g.r**2 / 2)
        exact = (3 - g.r**2) * u
        errs.append(np.max(np.abs(apply_la(plan, u) - exact)))
    assert errs[1] < errs[0] / 10
    assert errs[2] < errs[1] / 10


def test_radial_derivative(ctx3_free):
    # [DERIVED] d/dr e^{-r^2/2} = -r e^{-r^2/2} within 1e-8
    g = ctx3_free.grid
    u = np.exp(-g.r**2 / 2)
    du = radial_derivative(ctx3_free.plan, u)
    assert np.max(np.abs(du - (-g.r * u))) < 1e-8


def test_radial_derivative_singular_envelope(ctx3):
    # [TRIVIAL] r^{-rho} bump handled without NaN at the smallest node
    u = smooth_field(ctx3.params, ctx3.grid)
    du = radial_derivative(ctx3.plan, u)
    assert np.all(np.isfinite(du))


def test_resample_identity_and_scaling(ctx3):
    # [DERIVED] spectral resample agrees with pointwise evaluation
    g = ctx3.grid
    u = smooth_field(ctx3.params, g)
    assert np.array_equal(resample(ctx3.plan, u, 1.0), u)
    v = resample(ctx3.plan, u, 1.1)
    exact = (1.1 * g.r)**(-ctx3.params.rho) * np.exp(-(1.1 * g.r)**2 / 2)
    mask = g.r < 8.0
    assert np.max(np.abs(v - exact)[mask]) < 1e-7


# max-norm relative tolerance against the by-parts oracle; apply_la sums
# k_m^2-weighted modes, so on rough fields both its summation orders (and
# complexified matrices alike) drift apart by up to ~2e-13
REAL_OPERATORS = ((transform_forward, 1e-13), (transform_inverse, 1e-13),
                  (apply_la, 1e-12), (radial_derivative, 1e-13))


def _rel_err(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


def test_complex_fields_act_by_parts(ctx3):
    # [DERIVED] real operators on complex u agree with f(Re u) + i f(Im u),
    # also for a reversed (non-contiguous) view and a complex64 field
    rng = np.random.default_rng(3)
    us = random_fields(ctx3.params, ctx3.grid, rng, 4, complex_valued=True)
    for u in us + [us[0][::-1], us[1].astype(np.complex64)]:
        u128 = np.asarray(u, dtype=np.complex128)
        for f, tol in REAL_OPERATORS:
            out = f(ctx3.plan, u)
            ref = f(ctx3.plan, u128.real) + 1j * f(ctx3.plan, u128.imag)
            assert out.dtype == np.complex128
            assert _rel_err(out, ref) <= tol, f.__name__


def test_real_fields_take_plain_real_product(ctx3):
    # [TRIVIAL] real input: float64 result bit-identical to the matrix product
    plan = ctx3.plan
    u = random_fields(ctx3.params, ctx3.grid, np.random.default_rng(4), 1)[0]
    cases = [(transform_forward(plan, u), plan.PsiTw @ u),
             (transform_inverse(plan, u), plan.Psi @ u),
             (apply_la(plan, u), plan.Psi @ (plan.k**2 * (plan.PsiTw @ u)))]
    for out, ref in cases:
        assert out.dtype == np.float64
        assert np.array_equal(out, ref)


def test_plan_grid_mismatch(ctx3):
    # [TRIVIAL] wrong-length field rejected
    with pytest.raises(ValueError):
        transform_forward(ctx3.plan, np.zeros(7))
