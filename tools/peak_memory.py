"""Peak memory of the `blowup` case, phase by phase, at three resolutions.

    python tools/peak_memory.py SRC

SRC is a directory holding the package `hartreelab`.  For each n of NS it
runs the case of the benchmark's `blowup` workload, (d, a, r_max) =
(3, -0.1, 12): the grid, the transform plan, the Hartree kernel, the
ground-state solve from the default guess, and an evolution of STEPS
strang-split steps of dt = 2e-4 from the pseudo-conformal data of T* = 1,
sampled at its start and end.  Each n runs in two fresh subprocesses.  One
traces each phase alone with tracemalloc and reports, in MiB, the peak of
what that phase allocated and still held at once (row `traced`); the numpy
arrays are all traced, OpenBLAS's own buffers are not.  The other runs the
same phases untraced, since tracing would inflate the RSS.  It reports how
far each phase raised the process's max RSS (row `RSS +`; 0 for a phase
that stays below an earlier peak) and the max RSS at the end.  The last
phase with a positive `RSS +` sets the process's peak.  It uses the
package's public API alone, so it runs on older trees too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

NS = (512, 1024, 2048)
CASE = (3, -0.1, 12.0)
DT, STEPS = 2e-4, 50
PHASES = ("grid", "plan", "kernel", "solve", "evolve")


def child(n: int, trace: bool) -> dict:
    """Run the phases at n; returns per phase, in MiB, its traced peak
    (trace) or its growth of the max RSS, with the final max RSS.  `main`
    puts the package on the path."""
    import resource
    import tracemalloc
    import hartreelab as hl

    def max_rss():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    peaks = {}

    def phase(name, run):
        if trace:
            tracemalloc.start()
        before = max_rss()
        out = run()
        if trace:
            peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        else:
            peaks[name] = max_rss() - before
        return out

    d, a, r_max = CASE
    params = hl.make_params(d, a)
    grid = phase("grid", lambda: hl.build_grid(d, n, r_max))
    plan = phase("plan", lambda: hl.build_plan(params, grid))
    km = phase("kernel", lambda: hl.build_kernel(grid, params))
    gs = phase("solve", lambda: hl.solve_ground_state(params, grid, plan, km))
    cfg = hl.IntegratorConfig(dt=DT, t_end=STEPS * DT, output_stride=STEPS)
    phase("evolve", lambda: hl.evolve(
        hl.make_initial_data("pseudo-conformal", {"T_star": 1.0}, params, grid,
                             plan, gs.Q), cfg, plan, km))
    if not trace:
        peaks["max_rss"] = max_rss()
    return peaks


def main(src: str) -> int:
    print(f"blowup case (d, a, r_max) = {CASE}, {STEPS} steps of dt = {DT}; MiB")
    print(f"{'n':>6} {'':<7}" + " ".join(f"{p:>8}" for p in PHASES) + f" {'max RSS':>9}")
    for n in NS:
        rows = []
        for trace in (1, 0):
            out = subprocess.run([sys.executable, os.path.abspath(__file__), src,
                                  "--child", str(n), str(trace)],
                                 capture_output=True, text=True)
            if out.returncode:
                print(out.stderr, file=sys.stderr)
                return 1
            rows.append(json.loads(out.stdout.splitlines()[-1]))
        traced, rss = rows
        print(f"{n:>6} {'traced':<7}" + " ".join(f"{traced[p]:8.2f}" for p in PHASES))
        print(f"{'':>6} {'RSS +':<7}" + " ".join(f"{rss[p]:8.2f}" for p in PHASES)
              + f" {rss['max_rss']:9.1f}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[2] == "--child":
        sys.path.insert(0, sys.argv[1])
        print(json.dumps(child(int(sys.argv[3]), bool(int(sys.argv[4])))))
    elif len(sys.argv) == 2:
        sys.exit(main(sys.argv[1]))
    else:
        sys.exit(__doc__)
