import math

import numpy as np
import pytest
from scipy import integrate

from hartreelab import (build_grid, build_kernel, hartree, kernel, lv_value,
                        make_params, potential)
from hartreelab.hartree import surface_area


def test_kernel_closed_forms():
    # [DERIVED] shell property of |x|^{-(d-2)} in d=4: A(2,1) = 1/max(2,1)^2
    assert kernel(4, 2.0, 1.0) == pytest.approx(0.25, rel=1e-12)
    # [TRIVIAL] symmetry
    assert kernel(4, 1.0, 2.0) == pytest.approx(0.25, rel=1e-12)
    # [DERIVED] d=3 closed form (1/(2rs)) ln((r+s)/|r-s|)
    assert kernel(3, 2.0, 1.0) == pytest.approx(math.log(3.0) / 4, rel=1e-12)


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


def test_potential_zero(ctx3):
    # [TRIVIAL]
    assert np.all(potential(ctx3.km, np.zeros(ctx3.grid.n)) == 0)


def test_potential_origin_limit(ctx3):
    # [TRIVIAL] Phi(r -> 0) -> int |u|^2/|y|^2 dy (kernel at origin is |y|^-2).
    # Probed on the plain product-integration kernel: the singular-class form
    # correction deliberately trades pointwise accuracy at the first node for
    # form-level accuracy (see the hartree module docs).
    g = ctx3.grid
    km_plain = build_kernel(g)
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
    # [DERIVED] every d = 3 table entry near the singularity (analytic and
    # Gauss-Legendre alike) and at the far ends, against quadrature
    n = 64
    T, P = hartree._log_moment_tables(n)
    for b in list(range(-8, 9)) + [-(n - 1), n - 1]:
        ref = _cell_moments_quad(lambda t: math.log(abs(t - b)), [0.0] if b == 0 else None)
        assert np.max(np.abs(T[b + n - 1] - ref)) < 1e-12, b
    for b2 in list(range(1, 9)) + [2 * n - 1]:
        ref = _cell_moments_quad(lambda t: math.log(t + b2))
        assert np.max(np.abs(P[b2 - 1] - ref)) < 1e-12, b2


def test_d3_table_moments_match_cell_quadrature():
    # [DERIVED] translation invariance of the midpoint grid: the table entry
    # P[i + c] - T[i - c + n - 1] is the moment of ln((r_i + s)/|r_i - s|)
    # over cell c, s = r_c + t h, for near, far and boundary pairs (i, c)
    n = 64
    g = build_grid(3, n, 10.0)
    T, P = hartree._log_moment_tables(n)
    for i, c in ((0, 0), (3, 5), (20, 20), (20, 24), (40, 10), (63, 0), (63, 63)):
        ri, rc, h = g.r[i], g.r[c], g.h
        ref = _cell_moments_quad(lambda t: math.log((ri + rc + t * h) / abs(ri - rc - t * h)),
                                 [(ri - rc) / h] if i == c else None)
        assert np.max(np.abs(P[i + c] - T[i - c + n - 1] - ref)) < 1e-12, (i, c)


def test_d3_build_takes_closed_forms_once_per_offset(monkeypatch):
    # [TRIVIAL] the d = 3 build evaluates each analytic moment once per
    # integer offset within NEAR: 2 NEAR + 1 of ln|t - b|, NEAR of ln(t + b)
    calls = {"abs": 0, "pos": 0}

    def counted(name, fn):
        def wrapper(b):
            calls[name] += 1
            return fn(b)
        return wrapper

    monkeypatch.setattr(hartree, "_ln_abs_moments", counted("abs", hartree._ln_abs_moments))
    monkeypatch.setattr(hartree, "_ln_pos_moments", counted("pos", hartree._ln_pos_moments))
    build_kernel(build_grid(3, 64, 10.0))
    assert calls == {"abs": 2 * hartree.NEAR + 1, "pos": hartree.NEAR}
