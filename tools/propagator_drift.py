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
two trees can show a bit-identical propagator.  It then runs the same field
at n = 384 and 512 and dt = 1e-4, with no gate: there the two dense products
of a step, the flow and the potential, are each 1-4 MiB and bound the step,
so a change to either shows in its microseconds per step.  The gated n = 256
runs take the kernel's real product and the ungated ones its column pairs
(`hartree._PAIR_MIN_N`), so one run covers both.  It uses the package's
public API alone, so it runs on older trees too.  Exits 0 if every gated mass
drift is under its gate.
"""

from __future__ import annotations

import hashlib
import sys
import time

CASE = (3, -0.1, 256, 12.0)
LARGE_NS = (384, 512)  # the ungated runs: same field, dt = DTS[0]
AMPLITUDE, T_END, STRIDE = 0.45, 1.0, 200
DTS = (1e-4, 5e-5)
SCHEMES = ("strang-split", "midpoint-relaxation")


def run(n: int, scheme: str, dt: float):
    """Evolve the case's field on n nodes; returns (whether it completed,
    drift of M, drift of E, us per step, first 12 hex digits of the final
    field's sha256).  `main` puts the package on the path first."""
    import hartreelab as hl
    import numpy as np

    d, a, _, r_max = CASE
    params = hl.make_params(d, a)
    grid = hl.build_grid(d, n, r_max)
    plan, km = hl.build_plan(params, grid), hl.build_kernel(grid, params)
    u0 = (AMPLITUDE * grid.r**(-params.rho) * np.exp(-grid.r**2 / 2)).astype(complex)
    cfg = hl.IntegratorConfig(dt=dt, t_end=T_END, scheme=scheme, output_stride=STRIDE)
    start = time.perf_counter()
    traj = hl.evolve(u0, cfg, plan, km)
    us = (time.perf_counter() - start) / round(T_END / dt) * 1e6
    q0, qT = traj.quantities[0], traj.quantities[-1]
    digest = hashlib.sha256(np.ascontiguousarray(traj.fields[-1]).tobytes())
    return (traj.stop_reason == "completed", abs(qT.M - q0.M) / q0.M,
            abs(qT.E - q0.E) / abs(q0.E), us, digest.hexdigest()[:12])


def main(src: str) -> int:
    sys.path.insert(0, src)
    ok = True
    print(f"case (d, a, n, r_max) = {CASE}, t_end = {T_END}, source {src}")
    for scheme in SCHEMES:
        e_drift = {}
        for dt in DTS:
            done, m_drift, e_drift[dt], us, digest = run(CASE[2], scheme, dt)
            gate = 1e-11 * (1e-4 / dt)
            ok &= done and m_drift < gate
            print(f"{scheme:<20} dt {dt:.0e}  mass drift {m_drift:.2e} (gate {gate:.0e})"
                  f"  energy drift {e_drift[dt]:.3e}  {us:6.1f} us/step"
                  f"  final field {digest}")
        print(f"{scheme:<20} energy-drift ratio {e_drift[DTS[0]] / e_drift[DTS[1]]:.3f}")
    for n in LARGE_NS:
        print(f"n = {n}, no gate")
        for scheme in SCHEMES:
            _, m_drift, e, us, digest = run(n, scheme, DTS[0])
            print(f"{scheme:<20} dt {DTS[0]:.0e}  mass drift {m_drift:.2e}"
                  f"  energy drift {e:.3e}  {us:6.1f} us/step  final field {digest}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
