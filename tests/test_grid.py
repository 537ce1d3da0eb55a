import math
from fractions import Fraction

import numpy as np
import pytest

from hartreelab import build_grid, make_params
from hartreelab.grid import (BOUNDARY_CELLS, BOUNDARY_STENCIL, STENCIL, TAIL_CELLS,
                             _centred, boundary_mass_fraction, dilate,
                             radial_derivative)


@pytest.mark.parametrize("d,n,r_max", [(3, 64, 5.0), (4, 128, 10.0), (5, 100, 7.0)])
def test_monomial_exact(d, n, r_max):
    # [TRIVIAL] int_0^R r^{d-1} dr = R^d/d within 1e-12 relative
    g = build_grid(d, n, r_max)
    exact = r_max**d / d
    assert np.sum(g.w * np.ones(n)) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_polynomial_exactness(d):
    # [TRIVIAL] interpolatory rule is exact on low-degree polynomials
    g = build_grid(d, 96, 3.0)
    for k in range(5):
        exact = 3.0**(d + k) / (d + k)
        assert np.sum(g.w * g.r**k) == pytest.approx(exact, rel=1e-11)


def test_gaussian_moment():
    # [DERIVED] int_0^inf e^{-r^2} r^2 dr = sqrt(pi)/4 within 1e-8 for r_max >= 8
    for r_max in (8.0, 10.0, 16.0):
        g = build_grid(3, 256, r_max)
        val = np.sum(g.w * np.exp(-g.r**2))
        assert val == pytest.approx(math.sqrt(math.pi) / 4, rel=1e-8)


def test_singular_class_accuracy():
    # [DERIVED] the rule stays accurate on the r^{-2 rho} * smooth class that
    # ground states inhabit (Gamma-function closed form)
    rho2 = 0.55
    g = build_grid(3, 512, 12.0)
    exact = math.gamma((3 - rho2) / 2) / 2
    val = np.sum(g.w * g.r**(-rho2) * np.exp(-g.r**2))
    assert val == pytest.approx(exact, rel=2e-6)   # observed ~7e-7 at n=512


def test_nodes_positive_increasing():
    # [TRIVIAL] node positivity and monotonicity
    for n in (16, 64, 256):
        g = build_grid(3, n, 12.0)
        assert np.all(g.r > 0)
        assert np.all(np.diff(g.r) > 0)
        assert g.r[-1] <= g.r_max


@pytest.mark.parametrize("d", [3, 4, 5])
def test_weights_positive(d):
    # [DERIVED] positive weights (required by the unitary propagator's metric)
    for n in (32, 128, 512):
        g = build_grid(d, n, 12.0)
        assert np.min(g.w) > 0


@pytest.mark.parametrize("d", range(3, 11))
def test_weights_positive_in_every_dimension(d):
    # [DERIVED] the one metric of the package is positive in every d, at the
    # coarse n whose interpolatory boundary weights are negative (n <= 17 in
    # d = 4, n <= 23 in d = 5, to n = 50 in d = 10) and at the origin node,
    # whose interpolatory weight is negative in every d >= 6
    for n in (16, 17, 23, 32, 256):
        g = build_grid(d, n, 12.0)
        assert np.all(g.w > 0), (n, np.flatnonzero(g.w <= 0))


def test_inv2_weights():
    # [DERIVED] the r^{d-3} companion rule: int_0^R r^2 * r^{d-3} dr = R^d/d
    g = build_grid(5, 128, 4.0)
    assert float(np.sum(g.w_inv2 * g.r**2)) == pytest.approx(4.0**5 / 5, rel=1e-10)


def test_degenerate_parameters_rejected():
    # [TRIVIAL]
    with pytest.raises(ValueError):
        build_grid(3, 8, 10.0)
    with pytest.raises(ValueError):
        build_grid(3, 64, -1.0)
    with pytest.raises(ValueError):
        build_grid(2, 64, 10.0)


def _exact_inverse(offsets):
    """Inverse of the transposed Vandermonde matrix of the integer offsets,
    by Gauss-Jordan elimination in rationals."""
    m = len(offsets)
    A = [[Fraction(o)**k for o in offsets] + [Fraction(int(i == k)) for i in range(m)]
         for k in range(m)]
    for col in range(m):
        piv = next(row for row in range(col, m) if A[row][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        A[col] = [x / A[col][col] for x in A[col]]
        for row in range(m):
            if row != col and A[row][col] != 0:
                f = A[row][col]
                A[row] = [x - f * y for x, y in zip(A[row], A[col])]
    return [row[m:] for row in A]


def _exact_weights(p, n, r_max):
    """Weights for int f r^p dr in exact rational arithmetic: centred
    8-node stencils, one-sided on nodes 0..7 at the origin, 6 nodes on the
    last 4 cells."""
    h = Fraction(r_max) / n
    mu = [Fraction(1, 2**q * (q + 1)) if q % 2 == 0 else 0 for q in range(p + 8)]
    w = [Fraction(0)] * n
    inverses = {}
    for c in range(n):
        if c >= n - 4:
            nodes = range(n - 6, n)
        else:
            s0 = min(max(c - 3, 0), n - 8)
            nodes = range(s0, s0 + 8)
        offsets = tuple(j - c for j in nodes)
        if offsets not in inverses:
            inverses[offsets] = _exact_inverse(offsets)
        inv = inverses[offsets]
        # int_{-1/2}^{1/2} t^k (c + 1/2 + t)^p dt, expanded in powers of t
        x = Fraction(2 * c + 1, 2)
        mom = [sum(math.comb(p, j) * x**(p - j) * mu[k + j] for j in range(p + 1))
               for k in range(len(nodes))]
        for a, j in enumerate(nodes):
            w[j] += sum(inv[a][k] * mom[k] for k in range(len(nodes)))
    return np.array([float(v * h**(p + 1)) for v in w])


def _per_build_stencil_inverses(n):
    """Each cell's stencil inverse by the integer Lagrange construction run
    over the distinct stencil patterns of one grid."""
    cells = np.arange(n)
    lo, _ = _centred(n)
    start = np.clip(cells - lo, 0, n - STENCIL)
    size = np.where(cells < n - BOUNDARY_CELLS, STENCIL, BOUNDARY_STENCIL)
    patterns, which = np.unique(np.stack([start - cells, size], axis=1), axis=0,
                                return_inverse=True)
    inv = np.zeros((len(patterns), STENCIL, STENCIL))
    for p, (off, m) in enumerate(patterns):
        t = np.arange(off + STENCIL - m, off + STENCIL)
        for a in range(m):
            others = np.delete(t, a)
            inv[p, STENCIL - m + a, :m] = np.poly(others)[::-1] / np.prod(t[a] - others)
    return start, inv[which.reshape(-1)]


@pytest.mark.parametrize("n", [16, 23, 512])
def test_stencil_inverses_built_once_match_per_build(n):
    # [TRIVIAL] the stencil inverses the module builds once, for the 8
    # patterns every n >= 16 has, are bit-identical to the construction run
    # over each grid's own patterns
    start, inv = _per_build_stencil_inverses(n)
    g = build_grid(3, n, 12.0)
    assert np.array_equal(g.stencil_start, start)
    assert np.array_equal(g.stencil_inv, inv)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_weights_match_exact_rational_rule(d):
    # [DERIVED] both rules are the interpolatory rule to round-off: against
    # the same rule in exact rational arithmetic (n = 512, r_max = 12, so h
    # is a dyadic rational), max-norm relative error of w <= 4e-15 and
    # per-node relative error of w and w_inv2 <= 1e-14
    g = build_grid(d, 512, 12.0)
    exact = _exact_weights(d - 1, 512, 12.0)
    assert np.max(np.abs(g.w - exact)) / np.max(exact) <= 4e-15
    assert np.max(np.abs(g.w - exact) / np.abs(exact)) <= 1e-14
    exact_inv2 = _exact_weights(d - 3, 512, 12.0)
    assert np.max(np.abs(g.w_inv2 - exact_inv2) / np.abs(exact_inv2)) <= 1e-14


def test_radial_derivative(ctx3_free):
    # [DERIVED] d/dr e^{-r^2/2} = -r e^{-r^2/2} within 1e-8
    g = ctx3_free.grid
    u = np.exp(-g.r**2 / 2)
    du = radial_derivative(g, ctx3_free.params.rho, u)
    assert np.max(np.abs(du - (-g.r * u))) < 1e-8


def test_radial_derivative_singular_envelope(ctx3):
    # [DERIVED] the r^{-rho} envelope goes through the regular part: no NaN at
    # the smallest node, and d/dr r^{-rho} e^{-r^2/2} = -(rho/r + r) u within
    # 1e-5 relative at every node (observed 2.0e-6 at n = 256)
    g, rho = ctx3.grid, ctx3.params.rho
    u = g.r**(-rho) * np.exp(-g.r**2 / 2)
    du = radial_derivative(g, rho, u)
    assert np.all(np.isfinite(du))
    exact = -(rho / g.r + g.r) * u
    mask = g.r < 8.0
    assert np.max(np.abs(du - exact)[mask] / np.abs(exact[mask])) <= 1e-5


def test_dilate_identity_and_scaling():
    # [DERIVED] the regular part's cell polynomial against the closed form of
    # u = r^{-rho} e^{-r^2/2} at nu_s = 0.9 and 1.1 for r < 8: a copy at
    # nu_s = 1, max error <= 1e-7 at n = 512 (observed 1.1e-13) and observed
    # order >= 3.5 from n = 256 to 512 (observed 7.7); zero beyond r_max
    p = make_params(3, -0.1)
    errs = {}
    for n in (256, 512):
        g = build_grid(3, n, 12.0)
        u = g.r**(-p.rho) * np.exp(-g.r**2 / 2)
        assert np.array_equal(dilate(g, p.rho, u, 1.0), u)
        for nu_s in (0.9, 1.1):
            x = nu_s * g.r
            v = dilate(g, p.rho, u, nu_s)
            exact = x**(-p.rho) * np.exp(-x**2 / 2)
            errs[n, nu_s] = np.max(np.abs(v - exact)[g.r < 8.0])
            assert np.all(v[x > g.r_max] == 0.0)
    for nu_s in (0.9, 1.1):
        assert errs[512, nu_s] <= 1e-7
        assert math.log2(errs[256, nu_s] / errs[512, nu_s]) >= 3.5


@pytest.mark.parametrize("d,a", [(3, -0.1), (3, 0.0), (4, -0.5)])
def test_dilate_exact_on_polynomial_regular_part(d, a):
    # [TRIVIAL] a cell stencil interpolates a polynomial of degree below its
    # node count exactly, so a regular part r^rho u that is a positive
    # polynomial is reproduced to 1e-13 relative at every dilated point:
    # degree 7 up to the reduced outer cells, also inside the first node
    # (nu_s = 0.9), and degree BOUNDARY_STENCIL - 1 = 5 in those cells
    # (nu_s = 1.1), whose 6-node stencils miss degree 6 and 7 by ~4e-10
    p, g = make_params(d, a), build_grid(d, 64, 5.0)
    outer = g.edges[-BOUNDARY_CELLS - 1]
    for deg, nu_s in ((7, 0.9), (7, 1.1), (BOUNDARY_STENCIL - 1, 1.1)):
        poly = lambda r: np.polyval(np.arange(deg + 1, 0, -1) / 8, r / g.r_max)
        x = nu_s * g.r
        inside = x <= g.r_max
        check = inside & (x <= outer) if deg > BOUNDARY_STENCIL - 1 else inside & (x > outer)
        assert np.any(check)
        v = dilate(g, p.rho, g.r**(-p.rho) * poly(g.r), nu_s)
        exact = x[check]**(-p.rho) * poly(x[check])
        assert np.max(np.abs(v[check] - exact) / exact) <= 1e-13
        assert np.all(v[~inside] == 0.0)


@pytest.mark.parametrize("nu_s", [0.0, -0.5, math.inf, -math.inf, math.nan])
def test_dilate_rejects_non_positive_or_non_finite_factor(nu_s):
    # [TRIVIAL] a dilation factor outside (0, inf) raises instead of
    # evaluating r^{-rho} at x <= 0 (NaN) or zeroing the field
    p, g = make_params(3, -0.1), build_grid(3, 64, 5.0)
    u = g.r**(-p.rho) * np.exp(-g.r**2 / 2)
    with pytest.raises(ValueError, match="nu_s"):
        dilate(g, p.rho, u, nu_s)


def test_boundary_mass_fraction():
    # [TRIVIAL] the share of the discrete mass in the outer TAIL_CELLS cells
    g = build_grid(3, 64, 10.0)
    outer = np.zeros(g.n)
    outer[-TAIL_CELLS:] = 2.0
    assert boundary_mass_fraction(g, outer) == 1.0
    assert boundary_mass_fraction(g, np.zeros(g.n)) == 0.0
    u = np.ones(g.n, dtype=complex) * 1j
    expected = np.sum(g.w[-TAIL_CELLS:]) / np.sum(g.w)
    assert boundary_mass_fraction(g, u) == pytest.approx(expected, rel=1e-14)
