"""Radial quadrature grid on (0, r_max].

Uniform midpoint nodes r_j = (j + 1/2) h, h = r_max/n, with composite
interpolatory weights for integrals of the form

    int_0^{r_max} f(r) r^{d-1} dr  ~=  sum_j w_j f(r_j),

i.e. the measure r^{d-1} dr is folded into the weights.  Each cell contributes
weights obtained by fitting the cell moments of t^k r^{d-1} (computed with
per-cell Gauss-Legendre, which keeps them exact in floating point) on an
8-node sliding stencil.  The rule is exact for polynomials of degree <= 7 and
accurate to ~1e-10 for the singular class r^{-2 rho} * smooth that ground
states inhabit.

The outermost BOUNDARY_CELLS cells use a reduced BOUNDARY_STENCIL-node
stencil: full-order one-sided stencils produce an oscillating (negative)
weight near the boundary, and positive weights are required for the unitary
time propagator.  The loss of order is confined to the last few cells, where
fields vanish under the Dirichlet truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

STENCIL = 8  # nodes per cell stencil; rule exact for degree <= STENCIL-1
BOUNDARY_CELLS = 4    # outermost cells with a reduced stencil
BOUNDARY_STENCIL = 6  # nodes for those cells (keeps all weights positive)


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
    # per-cell interpolatory decomposition (used by the Hartree kernel build):
    # cell c spreads onto nodes stencil_start[c] .. stencil_start[c]+stencil_len[c]-1
    # with weights cell_lam[c, :stencil_len[c]].
    stencil_start: np.ndarray = field(repr=False)
    stencil_len: np.ndarray = field(repr=False)
    cell_lam: np.ndarray = field(repr=False)


def build_grid(d: int, n: int, r_max: float) -> RadialGrid:
    if n < 16:
        raise ValueError(f"grid size n must be >= 16, got {n}")
    if not (r_max > 0 and np.isfinite(r_max)):
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    if d < 3:
        raise ValueError(f"dimension d must be >= 3, got {d}")

    h = r_max / n
    r = (np.arange(n) + 0.5) * h
    edges = np.arange(n + 1) * h

    xg, wg = np.polynomial.legendre.leggauss(STENCIL + 4)
    w = np.zeros(n)
    w_inv2 = np.zeros(n)
    stencil_start = np.zeros(n, dtype=int)
    stencil_len = np.zeros(n, dtype=int)
    cell_lam = np.zeros((n, STENCIL))
    for c in range(n):
        lo, hi = edges[c], edges[c + 1]
        if c >= n - BOUNDARY_CELLS:
            m, s0 = BOUNDARY_STENCIL, n - BOUNDARY_STENCIL
        else:
            m, s0 = STENCIL, min(max(c - STENCIL // 2 + 1, 0), n - STENCIL)
        idx = np.arange(s0, s0 + m)
        c0 = r[c]
        rg = 0.5 * (hi + lo) + 0.5 * (hi - lo) * xg
        wgj = 0.5 * (hi - lo) * wg
        t = (rg - c0) / h
        Vinv = np.linalg.inv(np.vander((r[idx] - c0) / h, m, increasing=True).T)
        mom = np.array([np.sum(wgj * t**k * rg**(d - 1)) for k in range(m)])
        lam = Vinv @ mom
        w[idx] += lam
        mom2 = np.array([np.sum(wgj * t**k * rg**(d - 3)) for k in range(m)])
        w_inv2[idx] += Vinv @ mom2
        stencil_start[c] = s0
        stencil_len[c] = m
        cell_lam[c, :m] = lam

    return RadialGrid(d=d, n=n, r_max=float(r_max), r=r, w=w, w_inv2=w_inv2,
                      edges=edges, h=h, stencil_start=stencil_start,
                      stencil_len=stencil_len, cell_lam=cell_lam)


def integrate(grid: RadialGrid, f: np.ndarray) -> float:
    """Quadrature of int f(r) r^{d-1} dr for samples f on the grid nodes."""
    return np.sum(grid.w * f)
