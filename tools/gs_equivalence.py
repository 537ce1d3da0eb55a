"""Compare the ground-state solves of two source trees of hartreelab.

    python tools/gs_equivalence.py OLD_SRC NEW_SRC

Each tree (a directory holding the package `hartreelab`) solves every case of
CASES with both initial guesses and default options otherwise, in its own
subprocess.  A case matches if, where OLD solves, NEW solves too with `m_gs`
within 1e-12 relative of OLD's, and, where OLD raises GroundStateError, NEW
raises it too.  The Euler-Lagrange residual must agree within 1e-9 relative
plus the two Newton round-off floors (the last relative |F| of each solve):
the residual is the scaling anomaly of the discrete functionals plus whatever
Newton left at its floor, and two solves that stop at different iterates
leave different round-off there (up to 3e-12 between the two guesses of one
tree at n = 1024, against a residual of 6e-9).  Prints one line per case and
guess, then how many match and how many are bit-identical (the same bytes of
Q, by sha256, and the same m_gs and residual), and exits 0 if every case
matches.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

# (d, a, n, r_max)
CASES = (
    [(3, a, 512, 12.0) for a in (0.0, -0.02, -0.05, -0.1, -0.15, -0.2, -0.235)]
    + [(3, -0.1, 128, 8.0), (3, -0.1, 256, 12.0), (3, -0.1, 256, 20.0),
       (3, -0.1, 1024, 12.0), (3, -0.2, 1024, 12.0), (3, -0.15, 1024, 16.0),
       (3, -0.235, 1024, 16.0)]
    + [(4, a, 256, 12.0) for a in (0.0, -0.25, -0.5, -0.75, -0.9, -0.99)]
    + [(4, -0.5, 128, 8.0), (4, -0.5, 512, 12.0), (4, -0.5, 1024, 12.0),
       (4, -0.99, 512, 20.0)]
    + [(5, a, 256, 12.0) for a in (0.0, -0.5, -1.0, -1.5, -2.0)]
    + [(5, -1.0, 512, 12.0), (5, -2.0, 512, 12.0)]
    + [(6, a, 256, 12.0) for a in (0.0, -1.0, -2.0, -2.5)]
    + [(6, -1.0, 512, 20.0)]
    + [(7, -3.0, 128, 8.0), (7, -3.0, 256, 12.0)]
)
GUESSES = ("gaussian", "sech")


def solve_all(src: str) -> None:
    """Print one JSON line per case and guess, solved by the tree at src."""
    sys.path.insert(0, src)
    import hartreelab as hl

    for d, a, n, r_max in CASES:
        params = hl.make_params(d, a)
        grid = hl.build_grid(d, n, r_max)
        plan, km = hl.build_plan(params, grid), hl.build_kernel(grid, params)
        for guess in GUESSES:
            row = {"case": [d, a, n, r_max], "guess": guess}
            try:
                res = hl.solve_ground_state(params, grid, plan, km,
                                            hl.GroundStateOptions(guess=guess))
                row.update(m_gs=res.m_gs, residual=res.residual,
                           floor=res.newton_residuals[-1], iterations=res.iterations,
                           q_sha256=hashlib.sha256(res.Q.tobytes()).hexdigest())
            except hl.GroundStateError as exc:
                row["error"] = str(exc)
            print(json.dumps(row), flush=True)


def compare(old: dict, new: dict) -> str | None:
    """None if new matches old, else why not."""
    if "error" in old:
        return None if "error" in new else "old raises, new solves"
    if "error" in new:
        return f"new raises: {new['error']}"
    dm = abs(new["m_gs"] - old["m_gs"]) / old["m_gs"]
    dr = abs(new["residual"] - old["residual"])
    if dm > 1e-12 or dr > 1e-9 * old["residual"] + old["floor"] + new["floor"]:
        return f"m_gs off by {dm:.1e}, residual by {dr:.1e}"
    return None


def main(old_src: str, new_src: str) -> int:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    procs = [subprocess.Popen([sys.executable, __file__, "--solve", src], env=env,
                              stdout=subprocess.PIPE, text=True)
             for src in (old_src, new_src)]
    old, new = ([json.loads(ln) for ln in p.communicate()[0].splitlines()] for p in procs)
    if any(p.returncode for p in procs) or len(old) != len(new):
        print("a solver process failed", file=sys.stderr)
        return 1
    bad, same, worst_m = 0, 0, 0.0
    keys = ("q_sha256", "m_gs", "residual", "error")
    for o, w in zip(old, new):
        why = compare(o, w)
        bad += why is not None
        same += all(o.get(k) == w.get(k) for k in keys)
        if "error" in o:
            status = "both raise" if why is None else why
        else:
            dm = abs(w.get("m_gs", o["m_gs"]) - o["m_gs"]) / o["m_gs"]
            worst_m = max(worst_m, dm)
            status = why or (
                f"m_gs {o['m_gs']!r} d_rel {dm:.1e}  residual {o['residual']:.3e} "
                f"d_abs {abs(w['residual'] - o['residual']):.1e} floors "
                f"{o['floor']:.1e}/{w['floor']:.1e}  iterations "
                f"{o['iterations']} -> {w['iterations']}")
        print(f"{tuple(o['case'])!s:<28} {o['guess']:<8} {status}")
    print(f"{len(old) - bad} of {len(old)} match; {same} of {len(old)} bit-identical; "
          f"worst relative m_gs {worst_m:.1e}")
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--solve"]:
        solve_all(sys.argv[2])
    else:
        sys.exit(main(*sys.argv[1:3]))
