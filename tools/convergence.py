"""Convergence in n of the ground state of one source tree of hartreelab.

    python tools/convergence.py SRC

For each (d, a, r_max) of CASES the tree at SRC (a directory holding the
package `hartreelab`) solves the ground state at every n of NS, with default
options except that a residual above `residual_tol` is reported instead of
raised.  Per n it prints `m_gs`, the scaling anomaly 4(nu_final - 1) and the
Euler-Lagrange residual, marked `*` above the default `residual_tol`, or the
error of a solve that fails outright.  Per case, from the last three n, it
prints the observed order p = log2(|m_2 - m_1| / |m_3 - m_2|) of `m_gs`, the
Richardson limit m_3 + (m_3 - m_2)/(2^p - 1) and the distance of the n = 1024
value from that limit, or says why there is none.  A change that moves an
`m_gs` pin runs this for its parent and itself: the observed orders must be
no worse, and the n = 1024 value no farther from the limit.
"""

from __future__ import annotations

import math
import sys

# (d, a, r_max); (7, -3.0) at r_max 20 and 24, whose wall term is ~3e-12,
# checks that the limit does not depend on r_max
CASES = ((3, -0.1, 12.0), (4, -0.5, 12.0), (5, -0.5, 20.0), (5, -1.0, 20.0),
         (6, -1.0, 12.0), (6, 0.0, 20.0), (7, -3.0, 20.0), (7, -3.0, 24.0))
NS = (256, 512, 1024, 2048)


def main(src: str) -> int:
    sys.path.insert(0, src)
    import hartreelab as hl

    tol = hl.GroundStateOptions().residual_tol
    for d, a, r_max in CASES:
        print(f"(d, a, r_max) = ({d}, {a}, {r_max})")
        m = []
        for n in NS:
            params, grid = hl.make_params(d, a), hl.build_grid(d, n, r_max)
            plan, km = hl.build_plan(params, grid), hl.build_kernel(grid, params)
            try:
                res = hl.solve_ground_state(params, grid, plan, km,
                                            hl.GroundStateOptions(residual_tol=1.0))
            except hl.GroundStateError as exc:
                print(f"  n={n:<5} raises: {exc}", flush=True)
                m.append(None)
                continue
            m.append(res.m_gs)
            print(f"  n={n:<5} m_gs {res.m_gs!r:<20} anomaly {4 * (res.nu_final - 1):+.2e}"
                  f"  residual {res.residual:.2e}{' *' if res.residual > tol else ''}",
                  flush=True)
        m1, m2, m3 = m[-3:]
        if None in (m1, m2, m3):
            print("  no order: a solve failed")
        elif abs(m3 - m2) >= abs(m2 - m1):
            print("  no order: the changes in m_gs do not shrink")
        else:
            p = math.log2(abs(m2 - m1) / abs(m3 - m2))
            limit = m3 + (m3 - m2) / (2**p - 1)
            gap = abs(m[NS.index(1024)] - limit) / limit
            print(f"  order {p:.2f}  Richardson limit {limit!r}  "
                  f"|m_gs(1024) - limit| / limit {gap:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
