import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special

from hartreelab import (build_grid, build_kernel, hartree, kernel, lv_value,
                        make_params, potential)
from hartreelab.cli import _random_fields
from hartreelab.grid import STENCIL, _spread
from hartreelab.hartree import surface_area


def test_kernel_closed_forms():
    # [DERIVED] shell property of |x|^{-(d-2)} in d=4: A(2,1) = 1/max(2,1)^2
    assert kernel(4, 2.0, 1.0) == pytest.approx(0.25, rel=1e-12)
    # [TRIVIAL] symmetry
    assert kernel(4, 1.0, 2.0) == pytest.approx(0.25, rel=1e-12)
    # [DERIVED] d=3 closed form (1/(2rs)) ln((r+s)/|r-s|)
    assert kernel(3, 2.0, 1.0) == pytest.approx(math.log(3.0) / 4, rel=1e-12)
    # [DERIVED] even d: the 2F1 series ends; with t = min/R, d=6 gives
    # (1 - t^2/3)/R^2 and d=8 gives (1 - t^2/2 + t^4/10)/R^2
    for r, s in ((2.0, 1.0), (1.0, 1.6), (3.0, 2.97)):
        R, t = max(r, s), min(r, s) / max(r, s)
        assert kernel(6, r, s) == pytest.approx((1 - t**2 / 3) / R**2, rel=1e-14)
        assert kernel(8, r, s) == pytest.approx((1 - t**2 / 2 + t**4 / 10) / R**2,
                                                rel=1e-14)


def test_kernel_diagonal_is_error():
    # [TRIVIAL] the singularity on r == s must not be evaluated pointwise
    with pytest.raises(ValueError):
        kernel(3, 1.0, 1.0)
    with pytest.raises(ValueError):
        kernel(3, -1.0, 1.0)


def test_kernel_d5_oracle():
    # [DERIVED] d >= 5 sphere average vs brute-force Gauss-Legendre of the
    # Gegenbauer-type integrand int_0^pi sin^{d-2}t / |r-s e^{it}|^2 dt
    d, r, s = 5, 1.3, 0.7
    tt, ww = np.polynomial.legendre.leggauss(4000)
    t = 0.5 * math.pi * (tt + 1)
    w = 0.5 * math.pi * ww
    num = np.sum(w * np.sin(t)**(d - 2) / (r**2 - 2 * r * s * np.cos(t) + s**2))
    den = np.sum(w * np.sin(t)**(d - 2))
    assert kernel(d, r, s) == pytest.approx(float(num / den), rel=1e-9)


@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_kernel_matches_hypergeometric_oracle(d):
    # [DERIVED] A(r, s) = 2F1(1, 2 - d/2; d/2; t^2)/R^2, R = max(r, s),
    # t = min/R, by 30-digit mpmath, on both sides of the t = 1/2 switch
    # between the series and the recurrence and up to r/s = 0.999
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for q in (0.01, 0.3, 0.49, 0.51, 0.9, 0.99, 0.999):
            for r, s in ((q, 1.0), (1 / q, 1.0)):
                R = max(r, s)
                t = mpmath.mpf(min(r, s)) / R
                ref = mpmath.hyp2f1(1, 2 - mpmath.mpf(d) / 2, mpmath.mpf(d) / 2, t * t) / R**2
                assert abs(kernel(d, r, s) - ref) <= 1e-14 * ref, (r, s)


def test_potential_zero(ctx3):
    # [TRIVIAL]
    assert np.all(potential(ctx3.km, np.zeros(ctx3.grid.n)) == 0)


def test_kernel_and_potential_reject_mismatched_inputs(ctx3):
    # [TRIVIAL] params of another dimension than the grid's, and a field of
    # another length than the grid's, are rejected
    with pytest.raises(ValueError, match="params dimension 4 != grid dimension 3"):
        build_kernel(ctx3.grid, make_params(4, -0.5))
    with pytest.raises(ValueError, match="does not match grid n=256"):
        potential(ctx3.km, np.zeros(7))


def test_potential_origin_limit(ctx3):
    # [TRIVIAL] Phi(r -> 0) -> int |u|^2/|y|^2 dy (kernel at origin is |y|^-2).
    # Probed on the plain product-integration kernel: the singular-class form
    # correction deliberately trades pointwise accuracy at the first node for
    # form-level accuracy (see the hartree module docs).
    g = ctx3.grid
    km_plain = build_kernel(g, make_params(3, 0.0))
    u = np.exp(-(g.r - 3.0)**2)          # supported away from the origin
    phi = potential(km_plain, u)
    exact = km_plain.omega * float(np.sum(g.w * u**2 / g.r**2))
    assert phi[0] == pytest.approx(exact, rel=1e-4)


def test_potential_shell_d4(ctx4):
    # [DERIVED] d=4 thin shell at s0: Phi(r) = W / max(r, s0)^2
    g = ctx4.grid
    s0, width = 3.0, 0.05
    u = np.exp(-(g.r - s0)**2 / (2 * width**2))
    phi = potential(ctx4.km, u)
    W = ctx4.km.omega * float(np.sum(g.w * u**2))
    for r_probe, idx in ((1.0, np.searchsorted(g.r, 1.0)),
                         (6.0, np.searchsorted(g.r, 6.0))):
        assert phi[idx] == pytest.approx(W / max(g.r[idx], s0)**2, rel=1e-3)


@pytest.mark.parametrize("n", [64, 65, 512, 513])
@pytest.mark.parametrize("d,a", [(3, -0.1), (4, -0.5)])
def test_potential_is_the_real_product(d, a, n):
    # [TRIVIAL] odd n and even n below _PAIR_MIN_N take the real product
    # itself, bit for bit; from _PAIR_MIN_N on the potential is one complex
    # product over Kw's column pairs, equal to omega (Kw @ |u|^2) within
    # 4 ulp of omega (|Kw| @ |u|^2) (measured: 1.6).  n = 512 lies past
    # the size, so both forms are covered.  Real and complex fields; Kw is
    # C-ordered, as the view needs
    assert 64 < hartree._PAIR_MIN_N <= 512
    params = make_params(d, a)
    g = build_grid(d, n, 12.0)
    km = build_kernel(g, params)
    assert km.Kw.flags.c_contiguous
    rng = np.random.default_rng(3)
    fields = _random_fields(params, g, rng, 3) + \
        _random_fields(params, g, rng, 3, complex_valued=True)
    for u in fields:
        f = np.abs(u)**2
        got, want = potential(km, u), km.omega * (km.Kw @ f)
        if n % 2 or n < hartree._PAIR_MIN_N:
            assert np.array_equal(got, want)
        else:
            scale = km.omega * (np.abs(km.Kw) @ f)
            assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)


def test_lv_gaussian_closed_form(ctx3_free):
    # [DERIVED] L_V(e^{-r^2/2}) = pi^3/4 in d=3 (center-of-mass change of
    # variables collapses the double integral)
    u = np.exp(-ctx3_free.grid.r**2 / 2)
    assert lv_value(ctx3_free.km, u) == pytest.approx(math.pi**3 / 4, rel=1e-6)


def test_lv_monte_carlo_oracle(ctx3_free):
    # [DERIVED] Monte-Carlo cross-check of the double integral with >= 1e7
    # samples: L_V = (1/4) E_{x~f/|f|}[ |f|_1 * int f(x+z)/|z|^2 dz ] with
    # importance sampling z = (half-normal radius, uniform direction), which
    # keeps the estimator variance finite despite the |z|^{-2} singularity.
    rng = np.random.default_rng(42)
    sig_z = 2.0
    total = 10_000_000
    chunks, est = 10, []
    for _ in range(chunks):
        m = total // chunks
        x = rng.normal(scale=math.sqrt(0.5), size=(m, 3))   # density e^{-|x|^2}/pi^{3/2}
        zdir = rng.normal(size=(m, 3))
        zdir /= np.linalg.norm(zdir, axis=1)[:, None]
        rr = np.abs(rng.normal(scale=sig_z, size=m))        # half-normal radius
        p_r = math.sqrt(2 / math.pi) / sig_z * np.exp(-rr**2 / (2 * sig_z**2))
        y = x + zdir * rr[:, None]
        f_y = np.exp(-np.sum(y**2, axis=1))
        # 1/(|z|^2 q(z)) with q(z) = p_r/(omega_2 r^2) -> weight omega_2/p_r
        est.append(f_y * surface_area(3) / p_r)
    vals = np.concatenate(est)
    mc = 0.25 * math.pi**1.5 * float(np.mean(vals))
    sem = 0.25 * math.pi**1.5 * float(np.std(vals)) / math.sqrt(total)
    quad = lv_value(ctx3_free.km, np.exp(-ctx3_free.grid.r**2 / 2))
    assert abs(quad - mc) < 3 * sem
    assert mc == pytest.approx(math.pi**3 / 4, abs=4 * sem)


def test_lv_phase_invariance(ctx3):
    # [TRIVIAL] L_V depends on |u| only
    g = ctx3.grid
    u = g.r**(-ctx3.params.rho) * np.exp(-g.r**2 / 2)
    v = u * np.exp(1j * 0.7 * np.tanh(g.r))
    assert lv_value(ctx3.km, v) == pytest.approx(lv_value(ctx3.km, u), rel=1e-14)


def test_bilinear_symmetry(ctx3):
    # [TRIVIAL] the stored form is symmetric: Phi[f] against g equals Phi[g]
    # against f to machine precision
    g = ctx3.grid
    f = np.exp(-g.r**2)
    h = np.exp(-(g.r - 2.0)**2)
    a = float(np.sum(g.w * h * (ctx3.km.Kw @ f)))
    b = float(np.sum(g.w * f * (ctx3.km.Kw @ h)))
    assert a == pytest.approx(b, rel=1e-12)


def test_kernel_grid_convergence():
    # [DERIVED] grid refinement converges L_V on the singular ground-state
    # class (reference: next refinement level)
    p = make_params(3, -0.2)
    vals = []
    for n in (128, 256, 512):
        g = build_grid(3, n, 12.0)
        km = build_kernel(g, p)
        u = g.r**(-p.rho) * np.exp(-g.r**2 / 2)
        vals.append(lv_value(km, u))
    assert abs(vals[1] - vals[2]) < abs(vals[0] - vals[2])
    assert vals[2] == pytest.approx(vals[1], rel=1e-6)


def _cell_moments_quad(f, sing=None):
    """int_{-1/2}^{1/2} t^m f(t) dt, m = 0..8, by adaptive quadrature."""
    return np.array([integrate.quad(lambda t: t**m * f(t), -0.5, 0.5, points=sing,
                                    epsabs=1e-13, epsrel=0, limit=200)[0]
                     for m in range(hartree._MMAX)])


def test_log_moment_tables_oracle():
    # [DERIVED] the d = 3 table entries near the singularity (analytic and
    # Gauss-Legendre alike) and at both far ends, against quadrature
    n = 64
    U = hartree._log_moment_table(n)
    assert U.shape == (3 * n - 1, hartree._MMAX)
    for b in list(range(-8, 9)) + [-(2 * n - 1), n - 1]:
        ref = _cell_moments_quad(lambda t: math.log(abs(t - b)), [0.0] if b == 0 else None)
        assert np.max(np.abs(U[b + 2 * n - 1] - ref)) < 1e-12, b


def test_d3_table_moments_match_cell_quadrature():
    # [DERIVED] translation invariance of the midpoint grid: the table entries
    # at b = -(i + c + 1) and b = i - c give the moment of
    # ln((r_i + s)/|r_i - s|) over cell c, s = r_c + t h, for near, far and
    # boundary pairs (i, c)
    n = 64
    g = build_grid(3, n, 10.0)
    U = hartree._log_moment_table(n)
    for i, c in ((0, 0), (3, 5), (20, 20), (20, 24), (40, 10), (63, 0), (63, 63)):
        ri, rc, h = g.r[i], g.r[c], g.h
        ref = _cell_moments_quad(lambda t: math.log((ri + rc + t * h) / abs(ri - rc - t * h)),
                                 [(ri - rc) / h] if i == c else None)
        got = U[-(i + c + 1) + 2 * n - 1] - U[i - c + 2 * n - 1]
        assert np.max(np.abs(got - ref)) < 1e-12, (i, c)


def _cell_by_cell_d3(grid):
    """The uncorrected d = 3 matrix cell by cell: the moments of
    A(r_i, s) s^2 = s ln((r_i + s)/|r_i - s|)/(2 r_i) of every row over every
    cell from the log-moment table, spread onto the nodes by `_spread`."""
    n, r, h = grid.n, grid.r, grid.h
    U = hartree._log_moment_table(n)
    i, c = np.arange(n)[:, None], np.arange(n)
    # (r_i + s)/h = i + c + 1 + t and (r_i - s)/h = (i - c) - t on cell c
    Lm = U[2 * n - 1 - (i + c + 1)] - U[2 * n - 1 + i - c]
    mom = (r[:, None] * Lm[..., :STENCIL] + h * Lm[..., 1:]) * (h / (2 * r))[:, None, None]
    Kw = np.zeros((n, n))
    _spread(grid, mom, Kw)
    return Kw


@pytest.mark.parametrize("n", [16, 17, 21, 22, 64, 65])
def test_d3_toeplitz_hankel_build_matches_cell_by_cell(n):
    # [DERIVED] translation invariance of the midpoint grid: the d = 3 matrix
    # assembled from offset sequences (a Hankel part in i + j minus a
    # Toeplitz part in i - j, the edge columns cell by cell) equals the
    # cell-by-cell spread row by row to 1e-13 of the row's largest entry;
    # below n = 23 the cells reaching the first and the last columns overlap,
    # and counting one of them twice is off by up to a whole row maximum
    g = build_grid(3, n, 10.0)
    ref = _cell_by_cell_d3(g)
    got = hartree._kernel_d3(g)
    err = np.max(np.abs(got - ref), axis=1) / np.max(np.abs(ref), axis=1)
    assert np.max(err) <= 1e-13, (np.argmax(err), np.max(err))


@pytest.mark.parametrize("d,a", [(3, -0.1), (4, -0.5)])
def test_correction_changes_only_origin_rows_and_columns(d, a):
    # [TRIVIAL] the extraction vector vanishes past the first _ORIGIN_NODES
    # nodes, so the corrected form keeps the uncorrected one bit for bit
    # everywhere else (Kw = S / w row by row in both builds)
    g = build_grid(d, 128, 12.0)
    m = hartree._ORIGIN_NODES
    raw = build_kernel(g, make_params(d, 0.0)).Kw
    corrected = build_kernel(g, make_params(d, a)).Kw
    assert np.array_equal(corrected[m:, m:], raw[m:, m:])
    assert not np.array_equal(corrected[:m, :m], raw[:m, :m])


def test_d3_build_takes_closed_forms_once_per_offset(monkeypatch):
    # [TRIVIAL] the d = 3 build evaluates the analytic moments of ln|t - b|
    # once per integer offset within NEAR, b = -1 serving both logarithms
    calls = {"abs": 0}

    def counted(b):
        calls["abs"] += 1
        return ln_abs_moments(b)

    ln_abs_moments = hartree._ln_abs_moments
    monkeypatch.setattr(hartree, "_ln_abs_moments", counted)
    build_kernel(build_grid(3, 64, 10.0), make_params(3, 0.0))
    assert calls == {"abs": 2 * hartree.NEAR + 1}


_PSI_NODES = ("first", "block-end", "block-start", "middle", "last")


@pytest.mark.parametrize("d,a,node", [
    pytest.param(3, -0.1, "first", marks=pytest.mark.xfail(strict=True, reason=(
        "the segment above a node is refined to 2^-30 of r_max - r_i, about "
        "2n r_i at the first node: its last panel leaves 2.7e-11 of the d = 3 "
        "log singularity")))]
    + [(3, -0.1, node) for node in _PSI_NODES[1:]]
    + [(d, a, node) for d, a in ((4, -0.5), (5, -0.5)) for node in _PSI_NODES])
def test_psi_integrals_match_adaptive_quadrature(d, a, node):
    # [DERIVED] the block-wise psi-integrals of the singularity correction,
    # int_0^R A(r_i, s) psi(s) s^{d-1} ds with psi = s^{-2 rho} e^{-s^2},
    # at the first, middle and last nodes and on both sides of a block edge,
    # against adaptive quadrature split at s = r_i (A in closed form for
    # d = 3 and 4, the oracle-tested `kernel` for d = 5), to 1e-12 relative
    rho2 = 2 * make_params(d, a).rho
    g = build_grid(d, 256, 12.0)
    i = {"first": 0, "block-end": hartree._BLOCK - 1, "block-start": hartree._BLOCK,
         "middle": g.n // 2, "last": g.n - 1}[node]
    got = hartree._psi_integrals(d, g.r, g.r_max, rho2,
                                 hartree._origin_factor(d, rho2))[i]
    if d == 3:
        def A(r, s):
            return math.log((r + s) / abs(r - s)) / (2 * r * s)
    elif d == 4:
        def A(r, s):
            return 1.0 / max(r, s)**2
    else:
        def A(r, s):
            return kernel(d, r, s)
    ri = g.r[i]
    ref = sum(integrate.quad(lambda s: A(ri, s) * s**(d - 1 - rho2) * math.exp(-s * s),
                             lo, hi, epsabs=0, epsrel=1e-13, limit=200)[0]
              for lo, hi in ((0.0, ri), (ri, g.r_max)))
    assert abs(got - ref) <= 1e-12 * abs(ref), (got, ref)


@pytest.mark.parametrize("d,a,r_max", [(3, -0.1, 12.0), (3, -0.1, 3.0), (3, -0.1, 0.5),
                                       (4, -0.5, 14.0), (5, -1.0, 20.0), (7, -3.0, 20.0)])
def test_psi_psi_entry_matches_quadrature(d, a, r_max):
    # [DERIVED] the psi-psi entry of the singularity correction,
    # Wex = iint_{(0, R)^2} psi(x) A(x, s) psi(s) (x s)^{d-1} ds dx, against
    # adaptive quadrature of its p-form
    # Gamma(b) int_0^1 A(1, p) p^b P(b, R^2 (1 + p^2)) / (1 + p^2)^b dp,
    # b = d - 1 - 2 rho, with scipy's regularized P, and for d <= 4, where A
    # has a closed form, of the double integral itself, twice the part below
    # the diagonal, to 5e-12 relative.  R = 3 and 0.5 keep the truncation
    # (the untruncated Gamma(b) is 6.5e-5 off at R = 3); the panel pass over
    # outer nodes that formed Wex before read 1.1e-11 off at (3, -0.1, 12)
    rho2 = 2 * make_params(d, a).rho
    b = d - 1 - rho2
    got = hartree._psi_psi(d, r_max, rho2, hartree._origin_factor(d, rho2))
    if d == 3:
        def A(r, s):
            return math.log((r + s) / abs(r - s)) / (2 * r * s)
    elif d == 4:
        def A(r, s):
            return 1.0 / max(r, s)**2
    else:
        def A(r, s):
            return kernel(d, r, s)

    def pform(p):
        y = 1 + p * p
        return A(1.0, p) * p**b * special.gammainc(b, r_max**2 * y) / y**b

    refs = [math.gamma(b) * integrate.quad(pform, 0, 1, epsabs=0, epsrel=1e-13,
                                           limit=200)[0]]
    if d <= 4:
        def psi(s):
            return s**(d - 1 - rho2) * math.exp(-s * s)

        def below(x):
            return integrate.quad(lambda s: A(x, s) * psi(s), 0, x, epsabs=0,
                                  epsrel=1e-13, limit=200)[0]

        refs.append(2 * integrate.quad(lambda x: psi(x) * below(x), 0, r_max,
                                       epsabs=0, epsrel=1e-13, limit=200)[0])
    for ref in refs:
        assert abs(got - ref) <= 5e-12 * ref, (got, ref)


def test_gamma_p_matches_scipy():
    # [DERIVED] the regularized lower incomplete gamma P(a, z) of the psi-psi
    # entry against scipy's gammainc, relative, and 1 - P against gammaincc,
    # for a in (0.5, 6] and z in [0.1, 800] on both sides of the switch
    # z = a + 1 from the series to the continued fraction; scipy's own
    # values are up to 5e-15 off near a = 0.5, z = 1
    for a in (0.51, 1.0, 1.3, 2.0, 3.7, 6.0):
        z = np.sort(np.r_[np.geomspace(0.1, 800.0, 200), a + 1, np.nextafter(a + 1, 0)])
        P = hartree._gamma_p(a, z)
        assert np.all(np.abs(P - special.gammainc(a, z)) <= 1e-14 * special.gammainc(a, z))
        assert np.all(np.abs(1 - P - special.gammaincc(a, z)) <= 1e-14)


@pytest.mark.parametrize("d,a", [(3, -0.1), (5, -0.5)])
def test_corrected_build_peak_memory(d, a):
    # [TRIVIAL] the rows and the correction work through blocks of rows: the
    # traced peak of a corrected n = 512 build stays at the few n x n
    # matrices the form needs (10.2 MiB), which an unchunked pass over all
    # nodes (or, for d >= 4, all rows' Gauss-Legendre points) would exceed
    g, p = build_grid(d, 512, 12.0), make_params(d, a)
    build_kernel(g, p)
    tracemalloc.start()
    try:
        build_kernel(g, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * 2**20, peak / 2**20


def test_d3_build_works_in_the_kernel_buffer():
    # [TRIVIAL] the d = 3 build forms its edge-column moments in blocks of
    # rows and weights, symmetrizes, corrects and divides Kw in its own
    # buffer: the traced peak of a corrected n = 512 build stays at two
    # n x n arrays (3.6 MiB), where the edge moments of all rows at once
    # reached 5.4 MiB, and forming S = w Kw, its symmetric part and the
    # quotient as new arrays 8 MiB
    n = 512
    g, p = build_grid(3, n, 12.0), make_params(3, -0.1)
    build_kernel(g, p)
    tracemalloc.start()
    try:
        build_kernel(g, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * n * 8, peak / 2**20
