"""Nonlocal Hartree potential Phi = |.|^{-2} * |u|^2 for radial u, and L_V.

For radial fields the convolution reduces to a one-dimensional integral
against the sphere average of |x - y|^{-2},

    Phi(r) = omega_{d-1} int_0^inf A(r, s) |u(s)|^2 s^{d-1} ds,

which in every d is A = 2F1(1, 2 - d/2; d/2; t^2) / R^2 with R = max(r, s),
t = min(r, s)/R: ln((r+s)/|r-s|)/(2 r s) in d = 3 and 1/R^2 in d = 4.  In
d >= 5 it is exact both ways: for t < 1/2 the series sum c_k t^{2k} / R^2
(c_0 = 1, c_{k+1} = c_k (k + 2 - d/2)/(k + d/2), to |c_k| 4^-k < 1e-18; it
ends for even d), for t >= 1/2 the recurrence from the d = 3 or 4 form
A_{d+2} = d/(d-1) [r^2 + s^2 - (r^2 - s^2)^2 A_d] / (4 r^2 s^2), which
1 - x^2 = (E^2 - D^2)/E^2 + (D - E x)(D + E x)/E^2 gives in the Gegenbauer
average (o_{d-2}/o_{d-1}) int (1-x^2)^{(d-3)/2} / (D - E x) dx, D = r^2 + s^2,
E = 2 r s; each step there loses at most a factor 4 to cancellation.

The discrete operator is a precomputed n x n matrix built by product
integration: for each collocation radius r_i the s-integral over each grid
cell is computed against the same 8-node sliding-stencil polynomial
interpolation the quadrature weights use, with the kernel handled exactly.
Each row is a set of cell moments of t^k A(r_i, s) s^{d-1}, spread onto the
nodes by the grid's own stencils (`grid._spread`, or in d = 3 the grid's
centred stencil inverse read once); this module defines no stencil layout.

  d = 3: ln((r+s)/|r-s|) = ln|t + b2| - ln|t - b| on each cell, with t in
         [-1/2, 1/2] the cell-local coordinate.  On the uniform midpoint
         grid r_j = (j + 1/2) h the offsets of cell c seen from node r_i are
         the exact integers b = i - c and b2 = i + c + 1 (h cancels), and
         ln(t + b2) = ln|t - (-b2)|, so the build computes one moment table
         U_k[b] of ln|t - b| for b = -(2n-1)..n-1.  Offsets within NEAR of
         the singularity (b = -1, 0, 1) take the analytic moments, which do
         not depend on the grid and are a module table, the rest
         Gauss-Legendre, where the binomial expansion of the analytic moments
         would lose precision.
         The matrix is then structured in the nodes, not only in the cells.
         A centred cell c (lo <= c < hi of `grid._centred`) spreads onto node
         j = c - lo + q through the one inverse Sinv, and s = r_j + (lo - q
         + t) h on it, so with m = i + j + lo + 1 (Hankel) or m = j - i + lo
         (Toeplitz)
             Z0(m) = sum_{q,k} Sinv[q,k] U_k[q - m],
             Z1(m) = sum_{q,k} Sinv[q,k] ((lo - q) U_k[q - m] + U_{k+1}[q - m]),
             K_ij = h/(2 r_i) {r_j [Z0(i+j+lo+1) - Z0(j-i+lo)]
                               + h [Z1(i+j+lo+1) - Z1(j-i+lo)]}
         on every column STENCIL <= j < n - STENCIL: two sequences of length
         3n, two strided views of each and five n x n passes.  The first and
         last STENCIL columns also take the one-sided and reduced stencils;
         they are summed over the cells whose stencils reach them (cells 0-10
         and n-12..n-1, each once: the two sets meet below n = 23), with
         their moments formed _BLOCK rows at a time, so the build's traced
         peak stays below two n x n arrays
         (`test_d3_build_works_in_the_kernel_buffer`).  The tests keep the
         cell-by-cell build as the reference.
  d >= 4: blocks of _BLOCK_CELLS // n rows, 12-point Gauss-Legendre on
         every cell (one evaluation of A s^{d-1} and one product with
         weighted t^k), then 12 points on each half of the diagonal cell,
         whose centre is s = r_i.
         Even d: A s^{d-1} t^k has degree <= 2d + 2 on either side, so the
         rule is exact for d <= 10.  Odd d: the (s - r)^{d-3} ln|s - r| term
         is left to the rule; the scaling anomaly still falls with n
         (`test_d5_scaling_anomaly_converges`), and `tools/convergence.py`
         prints it at (5, -1.0, r_max 20).

The bilinear L_V matrix w_i K_ij is symmetrized by averaging with its
transpose.  This leaves every quadratic form (hence L_V) unchanged while
making the discrete energy, its gradient, and the Euler-Lagrange residual
mutually consistent; the pointwise potential inherits an O(h^2) collocation
smear only at the few nodes nearest the origin and the outer boundary.

Every product of the matrix with a density goes through `apply_kernel`.  It
takes the real product Kw @ f for odd n and below n = _PAIR_MIN_N, and from
that size on reads the real matrix as complex column pairs, so that OpenBLAS
threads the product: there the real product runs on one thread, and that
core's share of the matrix no longer fits in its L2 cache (ROADMAP item 12
has the step timings that set the size).

When the model parameters have rho > 0, a singularity subtraction
is folded into the matrix: in-class fields have |u|^2 ~ r^{-2 rho} x smooth
at the origin, which the polynomial stencils resolve poorly, so the form is
corrected by splitting f = a0 psi + remainder with psi = r^{-2 rho} e^{-r^2}
and a0 extracted linearly from the first _ORIGIN_NODES = 12 samples.  The
extraction vector is zero past them, so the correction forms and changes
only those rows and columns of the form (12 x n blocks, no n x n product);
every other entry keeps its uncorrected bits.  The psi-column and the
psi-psi entry are integrated to near machine accuracy by geometrically
refined Gauss-Legendre panels; the remainder (~ r^{2-2 rho} x smooth) is
left to the stencil rule, which handles it well.  The whole correction is
bilinear in the fields, so it stays inside a fixed matrix.

The psi-integrals int A(x, s) psi(s) s^{d-1} ds at the n nodes are one
array pass over fixed panel patterns, split at s = x.  The panels of (0, x)
are x times one pattern on (0, 1), refined at both ends, and A is
homogeneous of degree -2 (x^2 A(x, x p) = A(1, p) in every d), so the
weighted kernel factor wp A(1, p) p^{d-1-2 rho} is evaluated once per build
and each node only adds e^{-x^2 p^2}.  The panels of (x, R) are x + (R - x)
times a second pattern; A is evaluated there for blocks of 64 nodes, so the
temporaries stay at a few MiB.  Both patterns are module constants.

On s > x, psi(s) <= e^{-x^2} x^{-2 rho}, and omega times int_x^R A(x, s)
s^{d-1} ds is int_{x<|y|<R} |x - y|^{-2} dy <= int_{|z|<x+R} |z|^{-2} dz, so
the (x, R) part is at most e^{-x^2} x^{-2 rho} (2R)^{d-2}/(d-2).  Where that
bound is below a quarter ulp of the (0, x) part, adding the (x, R) part
would leave the (0, x) part's bits, and the build leaves it out: the
psi-integrals are the same bits as with the (x, R) part at every node.

The psi-psi entry uses the same homogeneity.  By symmetry it is twice the
integral over s < x < R; with s = x p and b = d - 1 - 2 rho the x-integral
int_0^R x^{2b-1} e^{-x^2 (1 + p^2)} dx is gamma(b, R^2 (1 + p^2)) /
(2 (1 + p^2)^b), so

    Wex = int_0^1 A(1, p) p^b gamma(b, R^2 (1 + p^2)) / (1 + p^2)^b dp,

one sum against the same weighted kernel factor.  The lower incomplete gamma
keeps the form's truncation at R: the untruncated Gamma(b) would be off by
6.5e-5 at (3, -0.1, R = 3).  `_gamma_p` forms it with numpy alone, by the
power series below R^2 (1 + p^2) = b + 1 and Lentz's continued fraction for
the upper function above it.

The correction targets the quadratic form (L_V, the energy, the ground-state
equation); the pointwise potential at the first few nodes is perturbed at the
percent level for fields far outside the singular class, because rank-one
form corrections divided by the tiny origin weights act there.  Those nodes
carry negligible measure, so the trade-off is invisible to every integrated
quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import _GAUSS_T, _GAUSS_W, STENCIL, RadialGrid, _centred, _spread
from .params import ModelParams

#: integer cell offsets |b| <= NEAR from the singularity use the analytic
#: moments; farther out their binomial expansion cancels (3e-8 absolute
#: error at |b| = 6) while 12-point Gauss-Legendre is exact to round-off
NEAR = 1
_MMAX = STENCIL + 1  # moments t^0 .. t^{STENCIL} (the measure adds one degree)
#: below this 2*rho the origin class is close enough to smooth that the
#: stencil rule needs no subtraction (and the extraction basis degenerates)
_RHO2_MIN = 0.05
#: 16-point Gauss-Legendre nodes and weights on [-1, 1], per refined panel
_XG16, _WG16 = np.polynomial.legendre.leggauss(16)
#: refined-panel breakpoints at 2^-1 .. 2^-30 of the panel length from an end
_HALVINGS = 0.5**np.arange(1, 31)
#: rows of a block whose psi-integral tail is taken go in multiples of this:
#: BLAS matrix-vector kernels sum rows in groups (of 4 in OpenBLAS), and a
#: row left in a partial group can round differently than in a whole block
_TAIL_ROWS = 16
#: rows per block of the psi-integrals (64 x ~1,000 panel nodes per temporary),
#: of the in-place symmetrization and of the d = 3 edge-column moments
_BLOCK = 64
#: cells per block of d >= 4 kernel rows spread onto the matrix at once
_BLOCK_CELLS = 2**13
#: origin nodes the r^{-2 rho} coefficient is extracted from; the singularity
#: correction changes only these rows and columns of the form
_ORIGIN_NODES = 12
#: even n from which `apply_kernel` takes the complex column-pair product
#: instead of the real one
_PAIR_MIN_N = 384
#: `_gamma_p` stops its series and its continued fraction at one ulp, the
#: latter after at most _CF_STEPS steps: the psi-psi entry's a = d - 1 - 2 rho
#: is above 1, where no z >= a + 1 needs more than 41 (4-14 at r_max >= 3)
_GAMMA_TOL, _CF_STEPS = np.finfo(float).eps, 200


def surface_area(d: int) -> float:
    """omega_{d-1} = 2 pi^{d/2} / Gamma(d/2), the area of the unit sphere."""
    return 2 * math.pi**(d / 2) / math.gamma(d / 2)


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


#: `_ln_abs_moments(b)` at b = -NEAR..NEAR, row b + NEAR
_LN_ABS_NEAR = np.array([_ln_abs_moments(float(b)) for b in range(-NEAR, NEAR + 1)])
#: the 12-point rule's weighted powers w_g t_g^m, m < _MMAX
_LOG_RULE = _GAUSS_W[:, None] * _GAUSS_T[:, None]**np.arange(_MMAX)[None, :]


def _log_moment_table(n: int) -> np.ndarray:
    """U[b + 2n - 1] = cell moments of ln|t - b| for b = -(2n-1)..n-1.

    Closed forms within NEAR of the singularity, 12-point Gauss-Legendre
    elsewhere.  With b = i - c and b = -(i + c + 1) the table covers both
    logarithms of ln((r_i + s)/|r_i - s|) over every cell c.
    """
    b = np.arange(-(2 * n - 1), n)
    U = np.log(np.abs(_GAUSS_T[None, :] - b[:, None])) @ _LOG_RULE
    U[2 * n - 1 - NEAR:2 * n + NEAR] = _LN_ABS_NEAR
    return U


def _kernel_d3(grid: RadialGrid) -> np.ndarray:
    """The uncorrected d = 3 matrix Kw: a Hankel minus a Toeplitz part in the
    nodes, with the edge columns spread cell by cell (see the module
    docstring)."""
    n, r, h = grid.n, grid.r, grid.h
    lo, _ = _centred(n)
    # zero rows past both ends of the table: only edge columns reach them
    U = np.pad(_log_moment_table(n), ((STENCIL, STENCIL), (0, 0)))
    at = 2 * n - 1 + STENCIL   # U[at + b] holds the moments of ln|t - b|
    # Z[m + n - 1 - lo] = sum_{q,k} Sinv[q,k] U_k[q - m] for the Hankel offsets
    # m = i + j + lo + 1 and the Toeplitz offsets m = j - i + lo; Z1 adds the
    # weights lo - q and U_{k+1}, the part of s = r_j + (lo - q + t) h past r_j
    q = np.arange(STENCIL)
    Ub = U[at + q - (np.arange(3 * n) + lo - n + 1)[:, None]]
    sinv = grid.stencil_inv[lo]
    Z0 = np.einsum("mqk,qk->m", Ub[..., :STENCIL], sinv)
    Z1 = h * np.einsum("mqk,qk->m", (lo - q)[:, None] * Ub[..., :STENCIL] + Ub[..., 1:], sinv)
    # row i of the Hankel part is window n + i, of the Toeplitz part n - 1 - i
    W0, W1 = sliding_window_view(Z0, n), sliding_window_view(Z1, n)
    Kw = np.subtract(W0[n:2 * n], W0[n - 1::-1])
    Kw *= r
    Kw += W1[n:2 * n]
    Kw -= W1[n - 1::-1]
    Kw *= (h / (2 * r))[:, None]
    # the first and last STENCIL columns also take one-sided and reduced
    # stencils: sum them over every cell whose stencil reaches them, once each
    edge = np.r_[:STENCIL, n - STENCIL:n]
    hit = (grid.stencil_start[:, None] + q)[..., None] == edge
    cells = np.flatnonzero(hit.any(axis=(1, 2)))
    G = np.einsum("cqk,cqe->cke", grid.stencil_inv[cells], hit[cells]).reshape(-1, len(edge))
    for i0 in range(0, n, _BLOCK):
        i = np.arange(i0, min(i0 + _BLOCK, n))[:, None]
        Lm = U[at - (i + cells + 1)] - U[at + i - cells]
        mom = r[cells, None] * Lm[..., :STENCIL]
        mom += h * Lm[..., 1:]
        mom *= (h / (2 * r[i]))[..., None]
        Kw[i0:i0 + _BLOCK, edge] = mom.reshape(len(i), -1) @ G
    return Kw


def _rows_general(grid: RadialGrid, d: int):
    """Cell moments of A(r_i, s) s^{d-1} for blocks of rows, d >= 4: yields
    (i0, mom) with mom[i - i0, c] the moments of row i over cell c, by
    12-point Gauss-Legendre on every cell, then 12 points on each half of the
    diagonal cell, whose centre is s = r_i."""
    n, r, h = grid.n, grid.r, grid.h
    # t on the whole cell, and on its halves [-1/2, 0] and [0, 1/2]
    t1, t2 = _GAUSS_T, np.concatenate((0.5 * _GAUSS_T - 0.25, 0.5 * _GAUSS_T + 0.25))
    P1 = h * _GAUSS_W[:, None] * t1[:, None]**np.arange(STENCIL)
    P2 = 0.5 * h * np.tile(_GAUSS_W, 2)[:, None] * t2[:, None]**np.arange(STENCIL)
    s1, s2 = r[:, None] + h * t1, r[:, None] + h * t2
    m1, m2 = s1**(d - 1), s2**(d - 1)
    rows = max(1, _BLOCK_CELLS // n)
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        ri = r[i0:i1, None]
        mom = (_kernel_vals(d, ri[..., None], s1) * m1) @ P1
        diag = np.arange(i1 - i0)
        mom[diag, diag + i0] = (_kernel_vals(d, ri, s2[i0:i1]) * m2[i0:i1]) @ P2
        yield i0, mom


def _panel_rule(left: bool, right: bool):
    """16-point Gauss-Legendre nodes and weights on [0, 1] over panels
    geometrically refined toward the marked ends; the panels of [a, b] are
    a + (b - a) times these."""
    bps = np.unique(np.concatenate(([0.0, 1.0], _HALVINGS if left else [],
                                    1 - _HALVINGS if right else [])))
    mid = 0.5 * (bps[1:] + bps[:-1])[:, None]
    haf = 0.5 * np.diff(bps)[:, None]
    return (mid + haf * _XG16).ravel(), (haf * _WG16).ravel()


#: the panels of every psi-integral's (0, x) part and the psi-psi entry, and
#: of the (x, R) part
_PANELS_BOTH, _PANELS_LEFT = _panel_rule(True, True), _panel_rule(True, False)


def _series(d: int) -> list:
    """c_k of 2F1(1, 2 - d/2; d/2; t^2) = sum c_k t^{2k}, up to the first
    with |c_k| 4^-k < 1e-18 (for even d the series ends with a zero c_k)."""
    c = [1.0]
    while abs(c[-1]) * 0.25**(len(c) - 1) >= 1e-18:
        k = len(c) - 1
        c.append(c[-1] * (k + 2 - d / 2) / (k + d / 2))
    return c


def _kernel_vals(d: int, r, s: np.ndarray) -> np.ndarray:
    """Sphere-average kernel A(r, s) away from the diagonal, broadcasting r
    against s (d >= 5: the 2F1 series below t = 1/2, the recurrence in d
    from d = 3 or 4 above it; see the module docstring)."""
    if d == 3:
        return np.log((r + s) / np.abs(r - s)) / (2 * r * s)
    if d == 4:
        return 1.0 / np.maximum(r, s)**2
    r, s = np.broadcast_arrays(r, s)
    R = np.maximum(r, s)
    t2 = (np.minimum(r, s) / R)**2
    out = np.empty(R.shape)
    near = t2 < 0.25
    tn, acc = t2[near], 0.0
    for c in reversed(_series(d)):
        acc = acc * tn + c
    out[near] = acc / R[near]**2
    far = ~near
    r2, s2 = r[far]**2, s[far]**2
    e = 4 - d % 2
    A = _kernel_vals(e, r[far], s[far])
    for k in range(e, d, 2):
        A = k / (k - 1) * (r2 + s2 - (r2 - s2)**2 * A) / (4 * r2 * s2)
    out[far] = A
    return out


def _origin_factor(d: int, rho2: float):
    """Nodes p of the both-ends refined panels on (0, 1) and the weighted
    kernel factor wp A(1, p) p^{d-1-rho2} that the (0, x) part of every
    psi-integral and the psi-psi entry share."""
    p, wp = _PANELS_BOTH
    return p, wp * _kernel_vals(d, 1.0, p) * p**(d - 1 - rho2)


def _psi_integrals(d: int, x: np.ndarray, r_max: float, rho2: float, factor) -> np.ndarray:
    """int_0^{r_max} A(x_i, s) psi(s) s^{d-1} ds for every radius x_i,
    psi = s^{-rho2} e^{-s^2}, by geometrically refined composite
    Gauss-Legendre split at s = x_i (see the module docstring); `factor` is
    `_origin_factor(d, rho2)`.

    A block takes the (x, R) part in its rows up to the last one where the
    part's bound, e^{-x^2} x^{-rho2} (2R)^{d-2}/(d-2), reaches a quarter ulp
    of the (0, x) part, rounded up to _TAIL_ROWS rows.  Adding it in any
    other row would leave the (0, x) part's bits, so the result is the same
    bits as with the (x, R) part in every row.
    """
    p, inner = factor
    q, wq = _PANELS_LEFT
    out = np.empty(len(x))
    tail_scale = (2 * r_max)**(d - 2) / (d - 2)
    for i0 in range(0, len(x), _BLOCK):
        xb = x[i0:i0 + _BLOCK, None]
        # (0, x): x^{d-2-rho2} int A(1, p) p^{d-1-rho2} e^{-x^2 p^2} dp
        head = out[i0:i0 + _BLOCK]
        head[:] = xb[:, 0]**(d - 2 - rho2) * (np.exp(-(xb * p)**2) @ inner)
        bound = tail_scale * np.exp(-xb[:, 0]**2) * xb[:, 0]**(-rho2)
        need = np.flatnonzero(bound >= 0.25 * np.spacing(head))
        if not need.size:
            continue
        xb = xb[:_TAIL_ROWS * math.ceil((need[-1] + 1) / _TAIL_ROWS)]
        L = r_max - xb
        s = xb + L * q
        head[:len(xb)] += L[:, 0] * ((_kernel_vals(d, xb, s) * s**(d - 1 - rho2)
                                      * np.exp(-s * s)) @ wq)
    return out


def _psi_psi(d: int, r_max: float, rho2: float, factor) -> float:
    """Wex = iint_{(0, r_max)^2} psi(x) A(x, s) psi(s) (x s)^{d-1} ds dx by
    homogeneity: with s = x p on s < x and the x-integral in closed form,
    Wex = int_0^1 A(1, p) p^b gamma(b, r_max^2 (1 + p^2)) / (1 + p^2)^b dp,
    b = d - 1 - rho2 (see the module docstring); `factor` is `_origin_factor(d, rho2)`."""
    p, inner = factor
    b, y = d - 1 - rho2, 1 + p * p
    return math.gamma(b) * float(_gamma_p(b, r_max * r_max * y) / y**b @ inner)


def _gamma_p(a: float, z: np.ndarray) -> np.ndarray:
    """Regularized lower incomplete gamma P(a, z) = gamma(a, z) / Gamma(a)
    for a > 0, z > 0: below z = a + 1 by its power series (DLMF §8.7), from
    there as 1 - Q with Lentz's continued fraction for Q = Gamma(a, z) /
    Gamma(a) (DLMF §8.9).  Q stays below 1/2 there, so P keeps a few ulp of
    relative accuracy on both sides."""
    lead = np.exp(a * np.log(z) - z - math.lgamma(a))   # z^a e^{-z} / Gamma(a)
    out = np.empty(z.shape)
    low = z < a + 1
    # P = lead sum_k z^k / (a (a + 1) ... (a + k)), positive terms
    x = z[low]
    term = np.full(x.shape, 1 / a)
    tot, k = term.copy(), a
    while np.any(term > _GAMMA_TOL * tot):
        k += 1
        term *= x / k
        tot += term
    out[low] = lead[low] * tot
    # Q = lead / (z + 1 - a - 1 (1 - a) / (z + 3 - a - 2 (2 - a) / ...))
    x = z[~low]
    bk = x + 1 - a
    dk = 1 / bk
    ck, h = np.full(x.shape, np.inf), dk.copy()
    for i in range(1, _CF_STEPS):
        an = -i * (i - a)
        bk += 2
        dk = 1 / (an * dk + bk)
        ck = bk + an / ck
        step = dk * ck
        h *= step
        if np.all(np.abs(step - 1) <= _GAMMA_TOL):
            break
    out[~low] = 1 - lead[~low] * h
    return out


def _singularity_correction(grid: RadialGrid, rho2: float, S: np.ndarray) -> None:
    """Correct the symmetric form matrix S in place (see the module
    docstring); only the first _ORIGIN_NODES rows and columns change."""
    n, d, R = grid.n, grid.d, grid.r_max
    r, w = grid.r, grid.w
    psi = r**(-rho2) * np.exp(-r**2)
    factor = _origin_factor(d, rho2)
    vex = _psi_integrals(d, r, R, rho2, factor)
    Wex = _psi_psi(d, R, rho2, factor)
    # linear extraction of the r^{-rho2} coefficient from the origin samples
    m = _ORIGIN_NODES
    X = np.vstack([r[:m]**(-rho2), r[:m]**(2 - rho2), np.ones(m), r[:m]**2]).T
    E = np.linalg.lstsq(X, np.eye(m), rcond=None)[0]
    e = np.zeros(n)
    e[:m] = E[0]
    # S' = P^T S P + P^T vw e^T + e vw^T P + Wex e e^T with P = I - psi e^T;
    # e vanishes past node m, so every other entry keeps S's bits
    vw = w * vex
    psiS, Spsi = psi @ S, S @ psi
    psiSpsi = psiS @ psi
    Pvw = vw - e * (psi @ vw)
    for rows, cols in ((slice(0, m), slice(None)), (slice(m, None), slice(0, m))):
        er, ec = e[rows], e[cols]
        S[rows, cols] = S[rows, cols] - np.outer(er, psiS[cols]) - np.outer(Spsi[rows], ec) \
            + psiSpsi * np.outer(er, ec)
        S[rows, cols] += np.outer(Pvw[rows], ec) + np.outer(er, Pvw[cols]) + Wex * np.outer(er, ec)


def build_kernel(grid: RadialGrid, params: ModelParams) -> KernelMatrix:
    """Cell-integrated Hartree kernel matrix for the grid.

    When `params` has 2 rho >= _RHO2_MIN, the origin singularity subtraction
    for the in-class envelope r^{-2 rho} is folded into the matrix; the a = 0
    build (rho = 0) is the uncorrected one.
    """
    d = grid.d
    if params.d != d:
        raise ValueError(f"params dimension {params.d} != grid dimension {d}")
    if d == 3:
        Kw = _kernel_d3(grid)
    else:
        Kw = np.zeros((grid.n, grid.n))
        for i0, mom in _rows_general(grid, d):
            _spread(grid, mom, Kw[i0:i0 + len(mom)])
        del mom   # not held through the symmetrization
    # symmetrize the bilinear form S = w Kw (quadratic forms are unchanged by
    # this), correct it and divide by the positive weights w, all in Kw's own
    # C-ordered buffer, which `apply_kernel` views as column pairs
    w = grid.w[:, None]
    Kw *= w
    _symmetrize(Kw)
    rho2 = 2 * params.rho
    if rho2 >= _RHO2_MIN:
        _singularity_correction(grid, rho2, Kw)
    Kw /= w
    return KernelMatrix(grid=grid, Kw=Kw, omega=surface_area(d))


def _symmetrize(S: np.ndarray) -> None:
    """S <- (S + S^T)/2 in place, _BLOCK rows and columns at a time, so that
    one block is the only temporary.  Block [i0, i1) reads S only at rows
    and columns >= i0, which the earlier blocks left alone."""
    for i0 in range(0, len(S), _BLOCK):
        i1 = i0 + _BLOCK
        blk = S[i0:i1, i0:] + S[i0:, i0:i1].T
        blk *= 0.5
        S[i0:i1, i0:] = blk
        S[i0:, i0:i1] = blk.T


def apply_kernel(km: KernelMatrix, f: np.ndarray) -> np.ndarray:
    """Kw @ f for a real density f: the real product for odd n and for
    n < _PAIR_MIN_N, one complex product over column pairs from that size on.

    Viewed as complex, row i of Kw holds the column pairs K_{i,2m} +
    i K_{i,2m+1} and f holds f_{2m} + i f_{2m+1}, so the real part of
    Kw.view(complex) @ conj(f.view(complex)) is
    sum_m (K_{i,2m} f_{2m} + K_{i,2m+1} f_{2m+1}) = (Kw f)_i.  Both views
    are free and the product reads the same bytes, but OpenBLAS runs a
    complex matrix-vector product on all its threads, where it runs the real
    one on one thread below m n ~ 4.6e5.  That one thread wins while its
    data fits in its core's L2 cache and loses once it does not.  Timed in
    an in-loop strang-split step at (3, -0.1), the crossover lies between
    n = 320 and 384 (ROADMAP item 12), so _PAIR_MIN_N is 384.  Odd n has no
    column pairs and keeps the real product at every size.
    """
    f = np.ascontiguousarray(f, dtype=float)
    n = km.grid.n
    if n % 2 or n < _PAIR_MIN_N:
        return km.Kw @ f
    return (km.Kw.view(complex) @ f.view(complex).conj()).real


def potential(km: KernelMatrix, u: np.ndarray) -> np.ndarray:
    """Phi(r_i) = omega * sum_j [cell-integrated A](i,j) |u_j|^2."""
    u = np.asarray(u)
    if u.shape != (km.grid.n,):
        raise ValueError(f"field length {u.shape} does not match grid n={km.grid.n}")
    return km.omega * apply_kernel(km, np.abs(u)**2)


def lv_value(km: KernelMatrix, u: np.ndarray) -> float:
    """L_V(u) = (1/4) iint |u(x)|^2 |u(y)|^2 / |x-y|^2 dx dy."""
    f = np.abs(np.asarray(u))**2
    return 0.25 * km.omega * float(np.sum(km.grid.w * potential(km, u) * f))
