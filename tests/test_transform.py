import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy import special
from scipy.optimize import brentq

from hartreelab import build_grid, build_plan, make_params, transform
from hartreelab.cli import _random_fields
from hartreelab.transform import (_collocation, _forward, _hankel_switch, _matvec,
                                  _prefix_entries, apply_la, bessel_zeros)


def forward(plan, u):
    """Spectral coefficients c = Psi^T (w u) of the samples u."""
    return _forward(plan, u)


def inverse(plan, c):
    """Samples Psi c of the spectral coefficients c."""
    return _matvec(plan.Psi, c)


def smooth_field(params, grid, rng=None):
    r = grid.r
    u = r**(-params.rho) * np.exp(-r**2 / 2)
    if rng is not None:
        u = u * (1 + 0.3 * np.sin(rng.uniform(1, 3) * r) * np.exp(-r))
    return u


def test_zero_field(ctx3):
    # [TRIVIAL] zero in, zero out
    z = np.zeros(ctx3.grid.n)
    assert np.all(forward(ctx3.plan, z) == 0)
    assert np.all(inverse(ctx3.plan, z) == 0)


def test_lowest_mode_unit_coefficient(ctx3):
    # [TRIVIAL] the lowest discrete mode maps to e_1 (orthonormal basis)
    plan = ctx3.plan
    mode0 = plan.Psi[:, 0]
    c = forward(plan, mode0)
    e1 = np.zeros(plan.grid.n)
    e1[0] = 1.0
    assert np.max(np.abs(c - e1)) < 1e-12


def test_round_trip(ctx3):
    # [DERIVED] inverse(forward(u)) = u within 1e-10 relative
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = smooth_field(ctx3.params, ctx3.grid, rng)
        v = inverse(ctx3.plan, forward(ctx3.plan, u))
        assert np.linalg.norm(v - u) / np.linalg.norm(u) < 1e-10


def test_parseval(ctx3):
    # [DERIVED] sum w_j |u_j|^2 = sum_m |c_m|^2 (orthonormal modes)
    u = smooth_field(ctx3.params, ctx3.grid)
    c = forward(ctx3.plan, u)
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


# max-norm relative tolerance against the by-parts oracle; apply_la sums
# k_m^2-weighted modes, so on rough fields both its summation orders (and
# complexified matrices alike) drift apart by up to ~2e-13
REAL_OPERATORS = ((forward, 1e-13), (inverse, 1e-13),
                  (apply_la, 1e-12))


def _rel_err(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


def test_complex_fields_act_by_parts(ctx3):
    # [DERIVED] real operators on complex u agree with f(Re u) + i f(Im u),
    # also for a reversed (non-contiguous) view and a complex64 field
    rng = np.random.default_rng(3)
    us = _random_fields(ctx3.params, ctx3.grid, rng, 4, complex_valued=True)
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
    u = _random_fields(ctx3.params, ctx3.grid, np.random.default_rng(4), 1)[0]
    w = plan.grid.w
    cases = [(forward(plan, u), plan.Psi.T @ (w * u)),
             (inverse(plan, u), plan.Psi @ u),
             (apply_la(plan, u), plan.Psi @ (plan.k**2 * (plan.Psi.T @ (w * u))))]
    for out, ref in cases:
        assert out.dtype == np.float64
        assert np.array_equal(out, ref)


@pytest.mark.parametrize("d,a", [(3, -0.2499), (3, -0.1), (7, -3.0)])
def test_bessel_zeros_stop_when_converged(d, a, monkeypatch):
    # [DERIVED] Newton stops once its steps are at round-off relative to the
    # zeros (an absolute 1e-14 test is below one ulp of the large zeros and
    # ran all 60 steps, 180 evaluations of J_nu and J_nu+-1); each zero lies
    # within 4 ulp of an independent bracketing root find of scipy's J_nu.
    # nu = 0.01, 0.39 and 1.80.
    nu = make_params(d, a).nu
    calls = []
    jv_pair = transform._jv_pair

    def counting(order, x):
        calls.append(1)
        return jv_pair(order, x)

    monkeypatch.setattr(transform, "_jv_pair", counting)
    z = bessel_zeros(nu, 512)
    monkeypatch.undo()
    assert len(calls) <= 15, len(calls)
    assert np.all(np.diff(z) > 3) and np.all(np.diff(z) < 3.3)
    for m in (0, 1, 255, 500, 511):
        ref = brentq(lambda x: special.jv(nu, x), z[m] - 1, z[m] + 1, xtol=1e-300, rtol=1e-15)
        assert abs(z[m] - ref) <= 4 * np.spacing(ref), m


def test_bessel_zeros_half_order_exact():
    # [DERIVED] J_{1/2}(x) = sqrt(2/(pi x)) sin x: the zeros are m pi
    z = bessel_zeros(0.5, 512)
    ref = np.pi * np.arange(1, 513)
    assert np.max(np.abs(z - ref) / np.spacing(ref)) <= 2


def test_plan_grid_mismatch(ctx3):
    # [TRIVIAL] wrong-length field rejected, and params of another dimension
    # than the grid's
    with pytest.raises(ValueError):
        apply_la(ctx3.plan, np.zeros(7))
    with pytest.raises(ValueError, match="params dimension 4 != grid dimension 3"):
        build_plan(make_params(4, -0.5), ctx3.grid)


@pytest.mark.parametrize("nu", [0.005, 0.224, 0.387, 0.707, 1.323, 2.5, 3.0])
def test_collocation_matches_mpmath(nu):
    # [DERIVED] B = J_nu(x) within 2e-15 of min(1, sqrt(2/(pi x))) against
    # 30-digit mpmath: by jv just below the switch point, by Hankel's
    # expansion just above it, at ~100 and at ~3200 (the largest argument at
    # n = 1024), where a phase x - phi formed directly is 1e-13 off
    xs = _hankel_switch(nu)
    x = np.array([xs - 0.5, xs * (1 - 1e-12), xs * (1 + 1e-12), xs + 0.5,
                  99.7, 100.3, 3199.1, 3200.6, 3201.9])
    B = _collocation(nu, x, np.array([1.0]))[0]
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.besselj(nu, mpmath.mpf(float(v)))) for v in x])
    scale = np.minimum(1.0, np.sqrt(2 / (np.pi * x)))
    err = np.abs(B - ref) / scale
    assert np.all(err <= 2e-15), err


def _mp_besselj(nu, x):
    with mpmath.workdps(30):
        return np.array([float(mpmath.besselj(nu, mpmath.mpf(float(v)))) for v in x])


def _amplitude_err(B, nu, x):
    return np.abs(B - _mp_besselj(nu, x)) / np.minimum(1.0, np.sqrt(2 / (np.pi * x)))


@pytest.mark.parametrize("nu", [0.005, 0.224, 0.387, 0.707, 1.323, 2.5, 3.0])
def test_collocation_below_switch_matches_mpmath(nu):
    # [DERIVED] below the switch point B comes from Miller's recurrence:
    # on 200 points spread over (0, x*) it is within 4e-15 of
    # min(1, sqrt(2/(pi x))) against 30-digit mpmath (scipy.special.jv, which
    # covered these entries before, is up to 6.9e-14 off)
    xs = _hankel_switch(nu)
    x = np.sort(np.random.default_rng(20).uniform(0, xs, 200))
    B = _collocation(nu, x, np.array([1.0]))[0]
    err = _amplitude_err(B, nu, x)
    assert np.all(err <= 4e-15), (err.max(), x[err.argmax()])


def _mp_zeros(nu, ms):
    with mpmath.workdps(30):
        return np.array([float(mpmath.besseljzero(nu, m)) for m in ms])


@pytest.mark.parametrize("nu", [0.01, 0.387, 1.8, 0.5, 2.5])
def test_bessel_zeros_match_mpmath(nu):
    # [DERIVED] the first ten zeros and the n-th lie within 4 ulp of mpmath's
    n = 512
    ms = list(range(1, 11)) + [n]
    z = bessel_zeros(nu, n)[np.array(ms) - 1]
    ref = _mp_zeros(nu, ms)
    assert np.all(np.abs(z - ref) <= 4 * np.spacing(ref)), (z - ref) / np.spacing(ref)


@pytest.mark.parametrize("nu", [19.0, 29.0])
def test_large_orders_match_mpmath(nu):
    # [DERIVED] nu = 19 and 29 (d = 40 and 60 at a = 0) need more than nine
    # Hankel terms, K >= nu, for the remainder bound to hold; the switch then
    # stays finite (63.5 and 71.4).  Zeros within 4 ulp of mpmath's (McMahon's
    # start alone led Newton from the first zero of nu = 29 to 2.67), B on
    # both sides of the switch within 1e-14 of the amplitude (Hankel's terms
    # near x* reach ~50 at nu = 29, so its sums round to ~30 ulp), no warning
    n = 256
    xs = _hankel_switch(nu)
    assert xs < 80
    ms = list(range(1, 11)) + [n]
    x = np.sort(np.random.default_rng(21).uniform(0, 3 * xs, 200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = bessel_zeros(nu, n)[np.array(ms) - 1]
        B = _collocation(nu, x, np.array([1.0]))[0]
    ref = _mp_zeros(nu, ms)
    assert np.all(np.abs(z - ref) <= 4 * np.spacing(ref)), (z - ref) / np.spacing(ref)
    err = _amplitude_err(B, nu, x)
    assert np.all(err <= 1e-14), (err.max(), x[err.argmax()])


@pytest.mark.parametrize("d,a", [(3, -0.1), (4, -0.5), (5, -0.5), (7, 0.0)])
def test_plan_matches_jv_plan(d, a, monkeypatch):
    # [DERIVED] the plan built on Hankel's expansion matches the one built on
    # special.jv over the whole matrix, through the same QR: Psi and its
    # forward transform Psi^T W within 1e-13 max-relative, k bit-identical
    p, g = make_params(d, a), build_grid(d, 512, 12.0)
    plan = build_plan(p, g)
    monkeypatch.setattr(transform, "_collocation",
                        lambda nu, k, r: special.jv(nu, k[None, :] * r[:, None]))
    ref = build_plan(p, g)
    assert np.array_equal(plan.k, ref.k)
    for name, got, want in (("Psi", plan.Psi, ref.Psi),
                            ("Psi^T W", plan.Psi.T * g.w, ref.Psi.T * g.w)):
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-13, name


def test_plan_build_peak_memory():
    # [TRIVIAL] the collocation matrix is evaluated in blocks of rows and
    # orthonormalized panel by panel in its own buffer, which the plan keeps
    # as Psi: the traced peak of an n = 512 build stays within two n x n
    # arrays, B and the Bessel samples' temporaries; README's transform row
    # has the measured peak
    n = 512
    p, g = make_params(3, -0.1), build_grid(3, n, 12.0)
    build_plan(p, g)
    tracemalloc.start()
    try:
        build_plan(p, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * n * 8, peak / 2**20


def _weighted_samples(p, g, k):
    """B = sqrt(w) J_nu(k_m r) / r^{(d-2)/2}, the matrix the plan orthonormalizes."""
    B = _collocation(p.nu, k, g.r)
    B *= np.sqrt(g.w)[:, None]
    B /= g.r[:, None]**((p.d - 2) / 2)
    return B


def _orthonormality_defect(plan):
    """max |Psi^T W Psi - I|."""
    return np.max(np.abs((plan.Psi.T * plan.grid.w) @ plan.Psi - np.eye(plan.grid.n)))


def _numpy_q(B):
    """Q of np.linalg.qr(B), kept here as the reference, with the signs of
    R's diagonal made positive."""
    Q, R = np.linalg.qr(B)
    return Q * np.sign(np.diag(R))


@pytest.mark.parametrize("n", [16, 63, 64, 65, 257, 512])
@pytest.mark.parametrize("d,a", [(3, -0.1), (4, -0.5), (10, -4.0)])
def test_plan_q_matches_numpy_qr(d, a, n):
    # [DERIVED] the panels of the in-place Gram-Schmidt (one partial panel,
    # one whole panel, a whole panel and one column, whole panels and a
    # remainder, whole panels alone) give the Q of np.linalg.qr with R's
    # diagonal positive: within 1e-14, and the modes orthonormal in the
    # weights as closely as that Q is orthonormal, to 6 eps
    p, g = make_params(d, a), build_grid(d, n, 12.0)
    plan = build_plan(p, g)
    Q = _numpy_q(_weighted_samples(p, g, plan.k))
    assert np.max(np.abs(plan.Psi * np.sqrt(g.w)[:, None] - Q)) <= 1e-14
    defect = np.max(np.abs(Q.T @ Q - np.eye(n)))
    assert _orthonormality_defect(plan) <= defect + 6 * np.finfo(float).eps


@pytest.mark.parametrize("d,n", [(16, 256), (20, 256), (30, 128), (30, 256)])
def test_plan_orthonormal_on_ill_conditioned_samples(d, n, monkeypatch):
    # [DERIVED] at large d the weighted samples are ill-conditioned (from
    # d = 30 on numerically dependent, so only orthonormality is tested):
    # some panel's Gram matrix has no Cholesky factor, or stays far from I
    # after one round, and takes the Householder QR; the modes stay
    # orthonormal in the weights as closely as numpy's Q is, to 6 eps, where
    # Cholesky QR alone, run twice, loses orthonormality or fails
    p, g = make_params(d, 0.0), build_grid(d, n, 12.0)
    householder, qr = [], np.linalg.qr

    def counted(*args, **kwargs):
        householder.append(args)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    plan = build_plan(p, g)
    monkeypatch.undo()
    assert householder
    Q = _numpy_q(_weighted_samples(p, g, plan.k))
    defect = np.max(np.abs(Q.T @ Q - np.eye(n)))
    assert _orthonormality_defect(plan) <= defect + 6 * np.finfo(float).eps


def _miller_scanning(nu, x):
    """`_miller` with the overflow scan after every step: J_nu(x),
    J_{nu+1}(x) and the count of steps that rescaled."""
    N = 2 * ((int(np.max(x, initial=0.0)) + transform._MILLER_MARGIN + 1) // 2)
    c = np.empty(N // 2 + 1)
    c[0], g = 1.0, 1.0
    for j in range(1, N // 2 + 1):
        c[j] = (nu + 2 * j) * g
        g *= (nu + j) / (j + 1)
    big, rescales = transform._MILLER_BIG, 0
    f_next, f = np.zeros_like(x), np.ones_like(x)
    total, tmp = np.zeros_like(x), np.empty_like(x)
    for k in range(N, 0, -1):
        if k % 2 == 0:
            total += np.multiply(f, c[k // 2], out=tmp)
        np.multiply(f, 2 * (nu + k), out=tmp)
        tmp /= x
        f_next, f = f, np.subtract(tmp, f_next, out=f_next)
        if np.max(np.abs(f, out=tmp)) > big:
            rescales += 1
            over = tmp > big
            for v in (f, f_next, total):
                v[over] /= big
    total += f
    scale = (x / 2)**nu / math.gamma(nu + 1) / total
    return f * scale, f_next * scale, rescales


@pytest.mark.parametrize("nu", [0.005, 0.387, 2.5, 19.0, 29.0])
def test_miller_without_scans_keeps_the_bits(nu, monkeypatch):
    # [DERIVED] `_miller` skips its overflow scans where its growth bound
    # stays one e-fold below _MILLER_BIG; on each argument array that
    # bessel_zeros(nu, 256) passes it, which never rescales, and on x down
    # to 1e-4, which must still rescale, it gives the bits of the reference
    # that scans after every step
    seen, miller = [], transform._miller

    def recorded(nu, x):
        seen.append(x)
        return miller(nu, x)

    monkeypatch.setattr(transform, "_miller", recorded)
    bessel_zeros(nu, 256)
    monkeypatch.undo()
    assert seen
    for x, rescaled in [(x, False) for x in seen] + [
            (np.geomspace(1e-4, _hankel_switch(nu + 1), 300), True)]:
        j0, j1, rescales = _miller_scanning(nu, x)
        assert (rescales > 0) == rescaled
        got = transform._miller(nu, x)
        assert np.array_equal(got[0], j0) and np.array_equal(got[1], j1)


@pytest.mark.parametrize("n", [16, 257, 1024])
def test_prefix_entries_match_the_mask(n):
    # [TRIVIAL] the Miller region's row and column indices, from the prefix
    # lengths alone, equal np.nonzero of the n x n mask, order included: for
    # the plan's own prefixes at (3, -0.1, r_max 12) and for random ones,
    # empty and full rows among them
    k = bessel_zeros(make_params(3, -0.1).nu, n) / 12.0
    r = build_grid(3, n, 12.0).r
    rng = np.random.default_rng(n)
    for prefix in (np.searchsorted(k, _hankel_switch(make_params(3, -0.1).nu) / r),
                   rng.integers(0, n + 1, n), np.r_[n, np.zeros(n - 2, int), n]):
        want = np.nonzero(np.arange(n) < prefix[:, None])
        got = _prefix_entries(prefix)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_plan_holds_one_mode_matrix(ctx3):
    # [TRIVIAL] the plan keeps one n x n array, the modes Psi; the forward
    # transform applies the grid's weights to the field, and the plan keeps
    # no copy of them
    plan = ctx3.plan
    square = [name for name, v in vars(plan).items()
              if isinstance(v, np.ndarray) and v.ndim == 2]
    assert square == ["Psi"]
    assert "w" not in vars(plan)
