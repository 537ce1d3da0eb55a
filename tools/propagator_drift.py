"""Report the propagator's conservation on the acceptance-04 field.

    python tools/propagator_drift.py SRC

SRC is a directory holding the package `hartreelab`.  The field is that of
`test_04_conservation_laws`: (d, a, n, r_max) = (3, -0.1, 256, 12), the
gaussian envelope 0.45 r^{-rho} e^{-r^2/2}, evolved to t = 1 with samples
every 200 steps.  For each scheme it evolves at dt = 1e-4 and 5e-5 and prints
the relative mass drift |M(1) - M(0)| / M(0) against the test's gates
(1e-11 at dt = 1e-4, 2e-11 at 5e-5), the relative energy drift, the ratio of
the two energy drifts (4 for a second-order scheme; the test asks for 3.5 to
4.5), the wall time of `evolve` per step in microseconds, samples included,
and the first 12 hex digits of the sha256 of the final field's bytes, so that
two trees can show a bit-identical propagator.  It uses the package's public
API alone, so it runs on older trees too.  Exits 0 if every mass drift is
under its gate.
"""

from __future__ import annotations

import hashlib
import sys
import time

CASE = (3, -0.1, 256, 12.0)
AMPLITUDE, T_END, STRIDE = 0.45, 1.0, 200
DTS = (1e-4, 5e-5)
SCHEMES = ("strang-split", "midpoint-relaxation")


def main(src: str) -> int:
    sys.path.insert(0, src)
    import hartreelab as hl
    import numpy as np

    d, a, n, r_max = CASE
    params = hl.make_params(d, a)
    grid = hl.build_grid(d, n, r_max)
    plan, km = hl.build_plan(params, grid), hl.build_kernel(grid, params)
    u0 = (AMPLITUDE * grid.r**(-params.rho) * np.exp(-grid.r**2 / 2)).astype(complex)
    ok = True
    print(f"case (d, a, n, r_max) = {CASE}, t_end = {T_END}, source {src}")
    for scheme in SCHEMES:
        e_drift = {}
        for dt in DTS:
            cfg = hl.IntegratorConfig(dt=dt, t_end=T_END, scheme=scheme,
                                      output_stride=STRIDE)
            start = time.perf_counter()
            traj = hl.evolve(u0, cfg, plan, km)
            us = (time.perf_counter() - start) / round(T_END / dt) * 1e6
            q0, qT = traj.quantities[0], traj.quantities[-1]
            m_drift = abs(qT.M - q0.M) / q0.M
            e_drift[dt] = abs(qT.E - q0.E) / abs(q0.E)
            gate = 1e-11 * (1e-4 / dt)
            ok &= traj.stop_reason == "completed" and m_drift < gate
            digest = hashlib.sha256(np.ascontiguousarray(traj.fields[-1]).tobytes())
            print(f"{scheme:<20} dt {dt:.0e}  mass drift {m_drift:.2e} (gate {gate:.0e})"
                  f"  energy drift {e_drift[dt]:.3e}  {us:6.1f} us/step"
                  f"  final field {digest.hexdigest()[:12]}")
        print(f"{scheme:<20} energy-drift ratio {e_drift[DTS[0]] / e_drift[DTS[1]]:.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
