"""Nonlocal Hartree potential Phi = |.|^{-2} * |u|^2 for radial u, and L_V.

For radial fields the convolution reduces to a one-dimensional integral
against the sphere average of |x - y|^{-2},

    Phi(r) = omega_{d-1} int_0^inf A(r, s) |u(s)|^2 s^{d-1} ds,

with closed forms A = ln((r+s)/|r-s|)/(2 r s) in d = 3 and A = 1/max(r,s)^2
in d = 4; in d >= 5, A is the Gegenbauer-weighted average
(o_{d-2}/o_{d-1}) int_{-1}^{1} (1-x^2)^{(d-3)/2} / (r^2+s^2-2 r s x) dx.

The discrete operator is a precomputed n x n matrix built by product
integration: for each collocation radius r_i the s-integral over each grid
cell is computed against the same 8-node sliding-stencil polynomial
interpolation the quadrature weights use, with the kernel handled exactly:

  d = 3: ln((r+s)/|r-s|) = ln(t + b2) - ln|t - b| on each cell, with t in
         [-1/2, 1/2] the cell-local coordinate.  On the uniform midpoint
         grid r_j = (j + 1/2) h the offsets of cell c seen from node r_i are
         the exact integers b = i - c and b2 = i + c + 1 (h cancels), so
         the build computes two moment tables once: ln|t - b| for
         b = -(n-1)..n-1 and ln(t + b2) for b2 = 1..2n-1, each row of the
         matrix being one slice-and-subtract of them.  Offsets within NEAR
         of the singularity (b = -1, 0, 1 and b2 = 1) take the analytic
         moments, the rest Gauss-Legendre, where the binomial expansion of
         the analytic moments would lose precision.
  d = 4: the kernel is piecewise polynomial-weighted; the diagonal cell is
         split exactly at s = r, Gauss-Legendre everywhere (exact).
  d >= 5: fixed-order Gauss-Jacobi for A plus subdivided Gauss-Legendre on
         the diagonal band (the kernel is continuous there, with mildly
         singular higher derivatives).

The bilinear L_V matrix w_i K_ij is symmetrized by averaging with its
transpose.  This leaves every quadratic form (hence L_V) unchanged while
making the discrete energy, its gradient, and the Euler-Lagrange residual
mutually consistent; the pointwise potential inherits an O(h^2) collocation
smear only at the few nodes nearest the origin and the outer boundary.

When model parameters with rho > 0 are supplied, a singularity subtraction
is folded into the matrix: in-class fields have |u|^2 ~ r^{-2 rho} x smooth
at the origin, which the polynomial stencils resolve poorly, so the form is
corrected by splitting f = a0 psi + remainder with psi = r^{-2 rho} e^{-r^2}
and a0 extracted linearly from the origin samples.  The psi-column and the
psi-psi entry are integrated to near machine accuracy by geometrically
refined Gauss-Legendre panels; the remainder (~ r^{2-2 rho} x smooth) is
left to the stencil rule, which handles it well.  The whole correction is
bilinear in the fields, so it stays inside a fixed matrix.

The correction targets the quadratic form (L_V, the energy, the ground-state
equation); the pointwise potential at the first few nodes is perturbed at the
percent level for fields far outside the singular class, because rank-one
form corrections divided by the tiny origin weights act there.  Those nodes
carry negligible measure, so the trade-off is invisible to every integrated
quantity.  Build the kernel without params when uncorrected pointwise rows
are wanted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .grid import STENCIL, RadialGrid
from .params import ModelParams

#: integer cell offsets |b| <= NEAR from the singularity use the analytic
#: moments; farther out their binomial expansion cancels (3e-8 absolute
#: error at |b| = 6) while 12-point Gauss-Legendre is exact to round-off
NEAR = 1
_GLQ = 12  # Gauss-Legendre points per regular cell
_MMAX = STENCIL + 1  # moments t^0 .. t^{STENCIL} (the measure adds one degree)
#: below this 2*rho the origin class is close enough to smooth that the
#: stencil rule needs no subtraction (and the extraction basis degenerates)
_RHO2_MIN = 0.05
_XG16, _WG16 = np.polynomial.legendre.leggauss(16)
#: refined-panel breakpoints at 2^-1 .. 2^-30 of the panel length from an end
_HALVINGS = 0.5**np.arange(1, 31)


def surface_area(d: int) -> float:
    """omega_{d-1} = 2 pi^{d/2} / Gamma(d/2), the area of the unit sphere."""
    return 2 * math.pi**(d / 2) / math.gamma(d / 2)


def kernel(d: int, r: float, s: float) -> float:
    """Sphere average of |x-y|^{-2} at radii |x| = r, |y| = s.

    Raises on r == s: the d = 3 kernel is logarithmically singular there and
    the matrix build integrates across the singularity instead of sampling it.
    """
    if r <= 0 or s <= 0:
        raise ValueError(f"kernel radii must be positive, got r={r}, s={s}")
    if r == s:
        raise ValueError("kernel is singular on the diagonal r == s; "
                         "use the cell-integrated matrix instead")
    return float(_kernel_vals(d, r, np.array([s]))[0])


@dataclass(frozen=True)
class KernelMatrix:
    grid: RadialGrid
    Kw: np.ndarray      # n x n, Phi(r_i) = omega * (Kw @ |u|^2)_i
    omega: float


def _ln_abs_moments(b: float) -> np.ndarray:
    """I_m = int_{-1/2}^{1/2} t^m ln|t - b| dt, m = 0..MMAX-1, closed form
    for integer b (so the singular point t = b is never a cell edge)."""
    out = np.zeros(_MMAX)
    for m in range(_MMAX):
        acc = 0.0
        for q in range(m + 1):
            cb = math.comb(m, q) * b**(m - q)
            for sgn, tau in ((1.0, 0.5 - b), (-1.0, -0.5 - b)):
                acc += sgn * cb * tau**(q + 1) * (math.log(abs(tau)) - 1.0 / (q + 1)) / (q + 1)
        out[m] = acc
    return out


def _ln_pos_moments(beta: float) -> np.ndarray:
    """I_m = int_{-1/2}^{1/2} t^m ln(t + beta) dt for integer beta >= 1, closed form."""
    out = np.zeros(_MMAX)
    for m in range(_MMAX):
        acc = 0.0
        for q in range(m + 1):
            cb = math.comb(m, q) * (-beta)**(m - q)
            for sgn, tau in ((1.0, 0.5 + beta), (-1.0, -0.5 + beta)):
                acc += sgn * cb * tau**(q + 1) * (math.log(tau) - 1.0 / (q + 1)) / (q + 1)
        out[m] = acc
    return out


def _stencil_inverses(grid: RadialGrid):
    """Inverse Vandermonde (transposed) per stencil pattern, in cell-local coords.

    Interior cells share the centered 8-node pattern; the first and last
    STENCIL//2 cells deviate (one-sided and, at the outer boundary, reduced
    stencils) and get per-cell inverses of their actual stencil size.
    """
    n = grid.n
    toff = np.arange(-(STENCIL // 2 - 1), STENCIL // 2 + 1, dtype=float)
    Vint_inv = np.linalg.inv(np.vander(toff, STENCIL, increasing=True).T)
    Vb = {}
    for c in list(range(STENCIL // 2)) + list(range(n - STENCIL // 2, n)):
        s0, m = grid.stencil_start[c], grid.stencil_len[c]
        off = np.arange(s0, s0 + m) - c
        Vb[c] = np.linalg.inv(np.vander(off.astype(float), m, increasing=True).T)
    return Vint_inv, Vb


def _log_moment_tables(n: int):
    """Cell moments of the two logarithms in ln((r+s)/|r-s|) on the midpoint grid.

    T[b + n - 1] holds the moments of ln|t - b| for b = -(n-1)..n-1 and
    P[b - 1] those of ln(t + b) for b = 1..2n-1: closed forms within NEAR of
    the singularity, 12-point Gauss-Legendre elsewhere.
    """
    xg, wg = np.polynomial.legendre.leggauss(_GLQ)
    tg = 0.5 * xg
    G = 0.5 * wg[:, None] * tg[:, None]**np.arange(_MMAX)[None, :]
    b = np.arange(-(n - 1), n)
    T = np.log(np.abs(tg[None, :] - b[:, None])) @ G
    for k in np.where(np.abs(b) <= NEAR)[0]:
        T[k] = _ln_abs_moments(float(b[k]))
    b2 = np.arange(1, 2 * n)
    P = np.log(tg[None, :] + b2[:, None]) @ G
    for k in np.where(b2 <= NEAR)[0]:
        P[k] = _ln_pos_moments(float(b2[k]))
    return T, P


def _rows_d3(grid: RadialGrid) -> np.ndarray:
    n, r, h = grid.n, grid.r, grid.h
    T, P = _log_moment_tables(n)
    Vint_inv, Vb = _stencil_inverses(grid)
    half = STENCIL // 2
    Kw = np.zeros((n, n))
    for i in range(n):
        # (r_i + s)/h = i + c + 1 + t and (r_i - s)/h = (i - c) - t on cell c
        Lm = P[i:i + n] - T[i:i + n][::-1]
        # A s^2 = s ln((r+s)/|r-s|) / (2 r): fold s = r_c + t h into the moments
        mom = (h / (2 * r[i])) * (r[:, None] * Lm[:, :STENCIL] + h * Lm[:, 1:STENCIL + 1])
        lam = mom[half:n - half] @ Vint_inv.T
        for q in range(STENCIL):
            Kw[i, 1 + q:n - STENCIL + 1 + q] += lam[:, q]
        for c in list(range(half)) + list(range(n - half, n)):
            s0, m = grid.stencil_start[c], grid.stencil_len[c]
            Kw[i, s0:s0 + m] += Vb[c] @ mom[c, :m]
    return Kw


def _rows_general(grid: RadialGrid, d: int) -> np.ndarray:
    """d = 4 (exact piecewise kernel) and d >= 5 (Gauss-Jacobi sphere average)."""
    n, r, h = grid.n, grid.r, grid.h
    xg, wg = np.polynomial.legendre.leggauss(_GLQ)
    tg, wgt = 0.5 * xg, 0.5 * wg
    Tp = tg[None, :]**np.arange(_MMAX - 1)[:, None]   # t^0..t^{STENCIL-1}
    Vint_inv, Vb = _stencil_inverses(grid)
    half = STENCIL // 2

    if d == 4:
        def Avals(ri, s):
            return 1.0 / np.maximum(ri, s)**2
    else:
        p = (d - 3) / 2
        xj, wj = special.roots_jacobi(64, p, p)
        wj = wj * surface_area(d - 1) / surface_area(d)
        def Avals(ri, s):
            denom = ri * ri + s * s - 2 * ri * s * xj[:, None]
            return np.sum(wj[:, None] / denom, axis=0)

    Kw = np.zeros((n, n))
    s_nodes = r[:, None] + tg[None, :] * h
    for i in range(n):
        ri = r[i]
        kv = Avals(ri, s_nodes.ravel()).reshape(n, _GLQ) * s_nodes**(d - 1)
        mom = h * np.einsum('g,kg,cg->ck', wgt, Tp, kv)
        # diagonal cell (and band for d >= 5): subdivide at s = r_i for exactness
        band = [i] if d == 4 else [j for j in (i - 1, i, i + 1) if 0 <= j < n]
        for c in band:
            lo, hi = grid.edges[c], grid.edges[c + 1]
            pieces = [(lo, ri), (ri, hi)] if lo < ri < hi else [(lo, hi)]
            acc = np.zeros(_MMAX - 1)
            for (aa, bb) in pieces:
                if bb <= aa:
                    continue
                sg = 0.5 * (aa + bb) + 0.5 * (bb - aa) * xg
                wq = 0.5 * (bb - aa) * wg
                tloc = (sg - r[c]) / h
                vals = Avals(ri, sg) * sg**(d - 1)
                acc += (tloc[None, :]**np.arange(_MMAX - 1)[:, None]) @ (wq * vals)
            mom[c] = acc
        lam = mom[half:n - half] @ Vint_inv.T
        for q in range(STENCIL):
            Kw[i, 1 + q:n - STENCIL + 1 + q] += lam[:, q]
        for c in list(range(half)) + list(range(n - half, n)):
            s0, m = grid.stencil_start[c], grid.stencil_len[c]
            Kw[i, s0:s0 + m] += Vb[c] @ mom[c, :m]
    return Kw


def _refined_segments(a: float, b: float, left: bool, right: bool):
    """Panels of [a, b] geometrically refined toward the marked endpoints."""
    L = b - a
    bps = np.sort(np.concatenate(([a, b], a + L * _HALVINGS if left else [],
                                  b - L * _HALVINGS if right else [])))
    keep = np.diff(bps) > 1e-15 * L
    return bps[:-1][keep], bps[1:][keep]


def _kernel_vals(d: int, ri: float, s: np.ndarray) -> np.ndarray:
    """Vectorized sphere-average kernel A(ri, s) away from the diagonal
    (d >= 5: 96-node Gauss-Jacobi quadrature of the Gegenbauer average)."""
    if d == 3:
        return np.log((ri + s) / np.abs(ri - s)) / (2 * ri * s)
    if d == 4:
        return 1.0 / np.maximum(ri, s)**2
    p = (d - 3) / 2
    xj, wj = special.roots_jacobi(96, p, p)
    denom = ri * ri + s[None, :]**2 - 2 * ri * s[None, :] * xj[:, None]
    return np.sum(wj[:, None] / denom, axis=0) * surface_area(d - 1) / surface_area(d)


def _psi_integral(d: int, ri: float, r_max: float, rho2: float) -> float:
    """int_0^{r_max} A(ri, s) psi(s) s^{d-1} ds, psi = s^{-rho2} e^{-s^2},
    by geometrically refined composite Gauss-Legendre (handles the origin
    power and the diagonal log singularity to near machine accuracy)."""
    total = 0.0
    for (a, b, lft, rgt) in ((0.0, ri, True, True), (ri, r_max, True, False)):
        if b <= a:
            continue
        los, his = _refined_segments(a, b, lft, rgt)
        mid = 0.5 * (los + his)[:, None]
        haf = 0.5 * (his - los)[:, None]
        s = (mid + haf * _XG16[None, :]).ravel()
        wq = (haf * _WG16[None, :]).ravel()
        total += float(np.sum(wq * _kernel_vals(d, ri, s) * s**(d - 1 - rho2)
                              * np.exp(-s**2)))
    return total


def _singularity_correction(grid: RadialGrid, rho2: float, S: np.ndarray) -> np.ndarray:
    """Return the corrected symmetric form matrix S' (see module docstring)."""
    n, d, R = grid.n, grid.d, grid.r_max
    r, w = grid.r, grid.w
    psi = r**(-rho2) * np.exp(-r**2)
    vex = np.array([_psi_integral(d, ri, R, rho2) for ri in r])
    # Wex = iint psi A psi, outer integral by the same refined panels with the
    # inner integral evaluated exactly at the panel nodes
    los, his = _refined_segments(0.0, R, True, False)
    mid = 0.5 * (los + his)[:, None]
    haf = 0.5 * (his - los)[:, None]
    snod = (mid + haf * _XG16[None, :]).ravel()
    wq = (haf * _WG16[None, :]).ravel()
    vv = np.array([_psi_integral(d, t, R, rho2) for t in snod])
    Wex = float(np.sum(wq * vv * snod**(d - 1 - rho2) * np.exp(-snod**2)))
    # linear extraction of the r^{-rho2} coefficient from the origin samples
    m = 12
    X = np.vstack([r[:m]**(-rho2), r[:m]**(2 - rho2), np.ones(m), r[:m]**2]).T
    E = np.linalg.lstsq(X, np.eye(m), rcond=None)[0]
    e = np.zeros(n)
    e[:m] = E[0]
    # S' = P^T S P + P^T vw e^T + e vw^T P + Wex e e^T with P = I - psi e^T
    vw = w * vex
    Sp = S - np.outer(e, psi @ S) - np.outer(S @ psi, e) \
        + (psi @ S @ psi) * np.outer(e, e)
    Pvw = vw - e * (psi @ vw)
    Sp += np.outer(Pvw, e) + np.outer(e, Pvw) + Wex * np.outer(e, e)
    return Sp


def build_kernel(grid: RadialGrid, params: ModelParams | None = None) -> KernelMatrix:
    """Cell-integrated Hartree kernel matrix for the grid.

    When `params` with rho > 0 is given, the origin singularity subtraction
    for the in-class envelope r^{-2 rho} is folded into the matrix.
    """
    d = grid.d
    if params is not None and params.d != d:
        raise ValueError(f"params dimension {params.d} != grid dimension {d}")
    if d == 3:
        Kw = _rows_d3(grid)
    else:
        Kw = _rows_general(grid, d)
    # symmetrize the bilinear form (quadratic forms are unchanged by this);
    # a zero-weight node (possible clamped origin weight, d >= 6) keeps its raw row
    w = grid.w
    S = w[:, None] * Kw
    S = 0.5 * (S + S.T)
    rho2 = 2 * params.rho if params is not None else 0.0
    if rho2 >= _RHO2_MIN:
        S = _singularity_correction(grid, rho2, S)
    pos = w > 0
    Kw = np.where(pos[:, None], S / np.where(pos, w, 1.0)[:, None], Kw)
    return KernelMatrix(grid=grid, Kw=Kw, omega=surface_area(d))


def potential(km: KernelMatrix, u: np.ndarray) -> np.ndarray:
    """Phi(r_i) = omega * sum_j [cell-integrated A](i,j) |u_j|^2."""
    u = np.asarray(u)
    if u.shape != (km.grid.n,):
        raise ValueError(f"field length {u.shape} does not match grid n={km.grid.n}")
    f = np.abs(u)**2
    return km.omega * (km.Kw @ f)


def lv_value(km: KernelMatrix, u: np.ndarray) -> float:
    """L_V(u) = (1/4) iint |u(x)|^2 |u(y)|^2 / |x-y|^2 dx dy."""
    f = np.abs(np.asarray(u))**2
    return 0.25 * km.omega * float(np.sum(km.grid.w * potential(km, u) * f))
