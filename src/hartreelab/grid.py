"""Radial quadrature grid on (0, r_max].

Uniform midpoint nodes r_j = (j + 1/2) h, h = r_max/n, with composite
interpolatory weights for integrals of the form

    int_0^{r_max} f(r) r^{d-1} dr  ~=  sum_j w_j f(r_j),

i.e. the measure r^{d-1} dr is folded into the weights.  Where no weight is
flipped (below) the rule is exact for degree <= 7.  On the singular class
r^{-2 rho} * smooth that ground states inhabit it converges only at order
d - 2 rho = 2 nu + 2 (`test_singular_class_accuracy`; README's grid row has
the errors by n).

Every weight is positive, the one metric of the transform, the kernel and
the rearrangement: a non-positive interpolatory weight (node 0 in d >= 6; a
few nodes near the boundary at n <= 17-50 for d = 4-10) takes its absolute
value, and node 0 keeps the order d - 2 rho.

The grid owns the cell stencils.  On cell c, with s = r_c + t h and t in
[-1/2, 1/2], node j sits at the exact integer offset t = j - c, so every
stencil's Vandermonde matrix has small integer entries and there is one
inverse per distinct stencil pattern (8 in all).  Cell moments int t^k g(s) ds
of any weight g become node weights by that inverse, and `_spread` sums them
over the cells; every quadrature measure and every row of the Hartree kernel
matrix go through it.  Cells STENCIL//2 - 1 .. n - BOUNDARY_CELLS - 1 take the
centred 8-node stencil; the first STENCIL//2 - 1 cells take the one-sided
stencil on nodes 0..7.  The outermost BOUNDARY_CELLS cells take a reduced
BOUNDARY_STENCIL-node stencil on the last nodes: full-order one-sided stencils
produce an oscillating (negative) weight near the boundary, and positive
weights are required for the unitary time propagator.  The loss of order is
confined to the last few cells, where fields vanish under the Dirichlet
truncation.

`class_weights(grid, p, rho)` builds every measure from the cell moments
h^{p+1} int t^k (c + 1/2 + t)^p dt, p > -1: closed form on cell 0, 12-point
Gauss-Legendre elsewhere (exact for integer p <= 16).  Times r^{2 rho}, its
weights are exact on r^{-2 rho} * polynomial in the measure r^{p + 2 rho} dr.

Fields with the r^{-rho} origin envelope are dilated and differentiated
through their regular part g = r^rho u, which is smooth at the origin:

  - `dilate` gives u(nu_s r) from the interpolating polynomial of g on the
    cell that holds nu_s r (cell 0's one-sided stencil inside the first
    node), and zero beyond r_max (the Dirichlet truncation).  It is exact
    for a polynomial g of degree <= 7, and `test_dilate_identity_and_scaling`
    bounds its error and its order in n on u = r^{-rho} e^{-r^2/2}.
  - `radial_derivative` gives u' = r^{-rho} (g' - rho g / r), with g' at
    each node from the same polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

STENCIL = 8  # nodes per cell stencil; rule exact for degree <= STENCIL-1
BOUNDARY_CELLS = 4    # outermost cells with a reduced stencil
BOUNDARY_STENCIL = 6  # nodes for those cells (keeps all weights positive)
TAIL_CELLS = 5        # outermost cells whose mass share flags a truncated field


@dataclass(frozen=True)
class RadialGrid:
    d: int
    n: int
    r_max: float
    r: np.ndarray        # nodes, shape (n,)
    w: np.ndarray        # weights for int f r^{d-1} dr, shape (n,)
    edges: np.ndarray    # cell edges, shape (n+1,)
    h: float             # uniform cell width
    # cell c spreads its moments t^0..t^{STENCIL-1} onto nodes
    # stencil_start[c] .. stencil_start[c] + STENCIL - 1 through the matrix
    # stencil_inv[c] (a reduced stencil has zero rows and columns)
    stencil_start: np.ndarray = field(repr=False)
    stencil_inv: np.ndarray = field(repr=False)


def _centred(n: int) -> tuple[int, int]:
    """Cells lo..hi-1 take the centred stencil, nodes c - lo .. c - lo + STENCIL - 1."""
    lo = STENCIL // 2 - 1
    return lo, n - max(BOUNDARY_CELLS, STENCIL - 1 - lo)


def _spread(grid: RadialGrid, mom: np.ndarray, out: np.ndarray) -> None:
    """Add to out[..., :] the node weights of the cell moments mom[..., c, k]
    of t^k; leading axes (rows of a matrix) are spread together."""
    lo, hi = _centred(grid.n)
    # the centred cells share one inverse: one product and STENCIL shifted adds
    lam = mom[..., lo:hi, :] @ grid.stencil_inv[lo].T
    for q in range(STENCIL):
        out[..., q:q + hi - lo] += lam[..., q]
    for c in (*range(lo), *range(hi, grid.n)):
        s0 = grid.stencil_start[c]
        out[..., s0:s0 + STENCIL] += mom[..., c, :] @ grid.stencil_inv[c].T


def class_weights(grid: RadialGrid, p: float, rho: float) -> np.ndarray:
    """Signed weights for int f r^{p + 2 rho} dr, p > -1, exact on r^{-2 rho} * polynomial."""
    k, half = np.arange(STENCIL), _GAUSS_T / 2 + 0.25
    # cell 0: (-1)^k 2^{-k-p-1} B(k + 1, p + 1) on t < 0, the rule on [0, 1/2]
    mom0 = ((-0.5)**k * 0.5**(p + 1) * np.cumprod(np.maximum(k, 1) / (p + 1 + k))
            + (0.5 + half)**p * _GAUSS_W / 2 @ half[:, None]**k)
    # cell c, x = c + 1/2: (x + t)^p = x^p (1 + e); x^p t^k integrates exactly,
    # and e = expm1(p log1p(t/x)) keeps the small odd moments free of cancellation
    x = (np.arange(1, grid.n) + 0.5)[:, None]
    e = np.expm1(p * np.log1p(_GAUSS_T / x))
    mom = x**p * (np.where(k % 2, 0.0, 0.5**k / (k + 1)) + e * _GAUSS_W @ _GAUSS_T[:, None]**k)
    out = np.zeros(grid.n)
    _spread(grid, grid.h**(p + 1) * np.vstack([mom0, mom]), out)
    return out * grid.r**(2 * rho)


def _layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's first stencil node, and the key of its stencil pattern:
    the node offset cell - start, plus STENCIL for a reduced stencil."""
    cells = np.arange(n)
    lo, _ = _centred(n)
    start = np.clip(cells - lo, 0, n - STENCIL)
    return start, cells - start + STENCIL * (cells >= n - BOUNDARY_CELLS)


def _stencil_inverses() -> np.ndarray:
    """The inverse of every pattern key of `_layout`: row a holds the integer
    coefficients of node a's Lagrange polynomial over one divisor, and a
    reduced stencil uses the last BOUNDARY_STENCIL nodes of its window.
    Every n >= 2 STENCIL has the same 8 patterns; keys no grid uses stay
    zero."""
    inv = np.zeros((2 * STENCIL, STENCIL, STENCIL))
    for key in np.unique(_layout(2 * STENCIL)[1]):
        off, m = -(key % STENCIL), BOUNDARY_STENCIL if key >= STENCIL else STENCIL
        t = np.arange(off + STENCIL - m, off + STENCIL)
        for a in range(m):
            others = np.delete(t, a)
            inv[key, STENCIL - m + a, :m] = np.poly(others)[::-1] / np.prod(t[a] - others)
    return inv


#: the stencil inverses by pattern key, built once per process
_STENCIL_INV = _stencil_inverses()
#: the 12-point Gauss-Legendre rule on [-1/2, 1/2], shared with the Hartree kernel
_GAUSS_T, _GAUSS_W = (x / 2 for x in np.polynomial.legendre.leggauss(12))


def build_grid(d: int, n: int, r_max: float) -> RadialGrid:
    if n < 16:
        raise ValueError(f"grid size n must be >= 16, got {n}")
    if not (r_max > 0 and np.isfinite(r_max)):
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    if d < 3:
        raise ValueError(f"dimension d must be >= 3, got {d}")

    h = r_max / n
    start, key = _layout(n)
    grid = RadialGrid(d=d, n=n, r_max=float(r_max), r=(np.arange(n) + 0.5) * h,
                      w=np.zeros(n), edges=np.arange(n + 1) * h, h=h, stencil_start=start,
                      stencil_inv=_STENCIL_INV[key])
    np.abs(class_weights(grid, d - 1, 0), out=grid.w)
    return grid


def boundary_mass_fraction(grid: RadialGrid, u: np.ndarray) -> float:
    """Share of the discrete mass of u in the outermost TAIL_CELLS cells
    (0 for a zero field)."""
    f = grid.w * np.abs(u)**2
    total = float(np.sum(f))
    return float(np.sum(f[-TAIL_CELLS:])) / total if total > 0 else 0.0


def dilate(grid: RadialGrid, rho: float, u: np.ndarray, nu_s: float) -> np.ndarray:
    """u(nu_s r) for nu_s > 0 from the regular part g = r^rho u: at x = nu_s r_j
    in cell c, with t = x/h - c - 1/2, the value of sum_k a_k t^k, where
    a_k = sum_q stencil_inv[c, q, k] g[stencil_start[c] + q] is the cell's
    interpolating polynomial.  Zero beyond r_max; nu_s = 1 returns a copy."""
    if not (nu_s > 0 and math.isfinite(nu_s)):
        raise ValueError(f"dilation factor nu_s must be positive and finite, got {nu_s!r}")
    if nu_s == 1.0:
        return np.array(u, copy=True)
    g = grid.r**rho * u
    x = nu_s * grid.r
    inside = x <= grid.r_max
    x = x[inside]
    c = np.minimum((x / grid.h).astype(int), grid.n - 1)
    t = x / grid.h - c - 0.5
    nodes = grid.stencil_start[c, None] + np.arange(STENCIL)
    a = (g[nodes][:, None, :] @ grid.stencil_inv[c])[:, 0]
    val = a[:, -1]
    for k in range(STENCIL - 2, -1, -1):
        val = val * t + a[:, k]
    out = np.zeros(grid.n, dtype=g.dtype)
    out[inside] = val * x**(-rho)
    return out


def radial_derivative(grid: RadialGrid, rho: float, u: np.ndarray) -> np.ndarray:
    """d/dr of u = r^{-rho} g: r^{-rho} (g' - rho g / r), with g' of the
    regular part g = r^rho u at each node from its cell stencil.  Stacked fields
    (nodes last) keep their own bits: `np.take` keeps each one's values contiguous."""
    g = grid.r**rho * u
    nodes = grid.stencil_start[:, None] + np.arange(STENCIL)
    dg = np.sum(grid.stencil_inv[:, :, 1] * np.take(g, nodes, axis=-1), axis=-1) / grid.h
    return grid.r**(-rho) * (dg - rho * g / grid.r)
