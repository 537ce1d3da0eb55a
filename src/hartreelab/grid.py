"""Radial quadrature grid on (0, r_max].

Uniform midpoint nodes r_j = (j + 1/2) h, h = r_max/n, with composite
interpolatory weights for integrals of the form

    int_0^{r_max} f(r) r^{d-1} dr  ~=  sum_j w_j f(r_j),

i.e. the measure r^{d-1} dr is folded into the weights.  Where no weight is
flipped (below) the rule is exact for degree <= 7.  On the singular class
r^{-2 rho} * smooth that ground states inhabit it converges only at order
d - 2 rho = 2 nu + 2: the relative error of int r^{-2 rho} e^{-r^2} r^{d-1} dr
(the mass of r^{-rho} e^{-r^2/2}) on r_max = 12 is 4.4e-7 / 6.5e-8 / 9.5e-9 /
1.4e-9 at n = 256 / 512 / 1024 / 2048 for (d, a) = (3, -0.1), order 2.77, and
1.6e-5 / 2.5e-6 / 4.1e-7 / 6.6e-8 for (4, -0.9), order 2.63.

Every weight is positive, the one metric of the transform, the kernel and
the rearrangement: a non-positive interpolatory weight (node 0 in d >= 6; a
few nodes near the boundary at n <= 17-50 for d = 4-10) takes its absolute
value, and node 0 keeps the order d - 2 rho.  w_inv2 stays signed: its d = 3
node 3 is -1.16 h, and its absolute value would be an O(h) error.

The grid owns the cell stencils.  On cell c, with s = r_c + t h and t in
[-1/2, 1/2], node j sits at the exact integer offset t = j - c, so every
stencil's Vandermonde matrix has small integer entries and there is one
inverse per distinct stencil pattern (8 in all).  Cell moments int t^k g(s) ds
of any weight g become node weights by that inverse, and `_spread` sums them
over the cells; the quadrature weights and every row of the Hartree kernel
matrix go through it.  Cells STENCIL//2 - 1 .. n - BOUNDARY_CELLS - 1 take the
centred 8-node stencil; the first STENCIL//2 - 1 cells take the one-sided
stencil on nodes 0..7.  The outermost BOUNDARY_CELLS cells take a reduced
BOUNDARY_STENCIL-node stencil on the last nodes: full-order one-sided stencils
produce an oscillating (negative) weight near the boundary, and positive
weights are required for the unitary time propagator.  The loss of order is
confined to the last few cells, where fields vanish under the Dirichlet
truncation.

The weight moments h^d int t^k (c + 1/2 + t)^{d-1} dt are polynomial in the
integer c and are summed from their binomial expansion, whose terms are all
non-negative (odd powers of t integrate to zero), so they carry only a few
ulp of rounding.

Fields with the r^{-rho} origin envelope are dilated and differentiated
through their regular part g = r^rho u, which is smooth at the origin:

  - `dilate` gives u(nu_s r) from the interpolating polynomial of g on the
    cell that holds nu_s r (cell 0's one-sided stencil inside the first
    node), and zero beyond r_max (the Dirichlet truncation).  It is exact
    for a polynomial g of degree <= 7, and on u = r^{-rho} e^{-r^2/2} at
    (3, -0.1) its error for r < 8 falls at order ~7.7 with n: 2.3e-11 at
    n = 256, 1.1e-13 at n = 512.
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
    w_inv2: np.ndarray   # weights for int f r^{d-3} dr (the Hardy-term measure)
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


def _power_moments(n: int, p: int) -> np.ndarray:
    """int_{-1/2}^{1/2} t^k (c + 1/2 + t)^p dt for cells c < n, k < STENCIL."""
    j = np.arange(p + 1)
    q = j[:, None] + np.arange(STENCIL)
    mu = np.where(q % 2 == 0, 0.5**q / (q + 1), 0.0)   # int t^q dt
    coef = np.array([math.comb(p, k) for k in j])[:, None] * mu
    return ((np.arange(n) + 0.5)[:, None] ** (p - j)) @ coef


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
                      w=np.zeros(n), w_inv2=np.zeros(n),
                      edges=np.arange(n + 1) * h, h=h, stencil_start=start,
                      stencil_inv=_STENCIL_INV[key])
    _spread(grid, h**d * _power_moments(n, d - 1), grid.w)
    np.abs(grid.w, out=grid.w)
    _spread(grid, h**(d - 2) * _power_moments(n, d - 3), grid.w_inv2)
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
    regular part g = r^rho u at each node from its cell stencil."""
    g = grid.r**rho * u
    nodes = grid.stencil_start[:, None] + np.arange(STENCIL)
    dg = np.sum(grid.stencil_inv[:, :, 1] * g[nodes], axis=1) / grid.h
    return grid.r**(-rho) * (dg - rho * g / grid.r)
