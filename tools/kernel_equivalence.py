"""Compare the Hartree kernel builds of two source trees of hartreelab.

    python tools/kernel_equivalence.py OLD_SRC NEW_SRC

Each tree (a directory holding the package `hartreelab`) builds, in its own
subprocess, the bilinear form S = w_i Kw_ij and the transform plan of every
case of CASES and solves the ground state on them with default options.  A
"raw" case builds the kernel without model parameters (no singularity
correction) and solves at a = 0, where rho = 0 and the corrected build is the
raw one.  Prints, per case, the
max-norm relative difference of S, whether the two S are bit-identical, with
the first 12 hex digits of each one's sha256, that of the plan's modes Psi
and the relative difference of `m_gs`, and exits 0 if every S is within 1e-13
and every `m_gs` within 1e-12 (a case whose solve raises GroundStateError
must raise in both trees; the raw d = 3 cases at n = 16 and 21, where the
cells of the kernel's first and last stencil columns overlap, are too coarse
to solve and raise).
Psi is shown, not gated, so that a change of the plan is visible beside its
effect on `m_gs`; the bit-identical count is shown, not gated.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

# (d, a or None for the raw build, n, r_max)
CASES = (
    [(3, None, n, 12.0) for n in (16, 21)]
    + [(3, a, n, 12.0) for a in (None, -0.1, -0.2) for n in (256, 512, 1024)]
    + [(4, -0.5, 512, 12.0), (5, None, 256, 12.0), (5, -0.5, 256, 12.0),
       (6, -1.0, 256, 12.0), (7, -3.0, 256, 12.0)]
)
S_TOL, M_TOL = 1e-13, 1e-12


def build_all(src: str, out: str) -> None:
    """Save S and Psi of each case to out/S<k>.npy and out/Psi<k>.npy and
    print one JSON line per case."""
    sys.path.insert(0, src)
    import hartreelab as hl

    for k, (d, a, n, r_max) in enumerate(CASES):
        params = hl.make_params(d, 0.0 if a is None else a)
        grid = hl.build_grid(d, n, r_max)
        km = hl.build_kernel(grid, None if a is None else params)
        plan = hl.build_plan(params, grid)
        np.save(os.path.join(out, f"S{k}.npy"), grid.w[:, None] * km.Kw)
        np.save(os.path.join(out, f"Psi{k}.npy"), plan.Psi)
        row = {"case": [d, a, n, r_max]}
        try:
            res = hl.solve_ground_state(params, grid, plan, km)
            row["m_gs"] = res.m_gs
        except hl.GroundStateError as exc:
            row["error"] = str(exc)
        print(json.dumps(row), flush=True)


def _rel_diff(old: np.ndarray, new: np.ndarray) -> float:
    """Max-norm difference of new from old, relative to max |old|."""
    return float(np.max(np.abs(new - old)) / np.max(np.abs(old)))


def main(old_src: str, new_src: str) -> int:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        outs = [os.path.join(tmp, tag) for tag in ("old", "new")]
        procs = []
        for src, out in zip((old_src, new_src), outs):
            os.mkdir(out)
            procs.append(subprocess.Popen([sys.executable, __file__, "--build", src, out],
                                          env=env, stdout=subprocess.PIPE, text=True))
        old, new = ([json.loads(ln) for ln in p.communicate()[0].splitlines()]
                    for p in procs)
        if any(p.returncode for p in procs) or len(old) != len(new):
            print("a build process failed", file=sys.stderr)
            return 1
        bad, same, worst_s, worst_psi, worst_m = 0, 0, 0.0, 0.0, 0.0
        for k, (o, w) in enumerate(zip(old, new)):
            (S_old, S_new), (Psi_old, Psi_new) = (
                [np.load(os.path.join(out, f"{name}{k}.npy")) for out in outs]
                for name in ("S", "Psi"))
            ds, dpsi = _rel_diff(S_old, S_new), _rel_diff(Psi_old, Psi_new)
            sha = [hashlib.sha256(S.tobytes()).hexdigest() for S in (S_old, S_new)]
            same += sha[0] == sha[1]
            worst_s, worst_psi = max(worst_s, ds), max(worst_psi, dpsi)
            if "error" in o or "error" in w:
                ok = "error" in o and "error" in w
                solve = "both raise" if ok else "one raises"
            else:
                dm = abs(w["m_gs"] - o["m_gs"]) / o["m_gs"]
                worst_m = max(worst_m, dm)
                ok = dm <= M_TOL
                solve = f"m_gs {o['m_gs']!r} d_rel {dm:.1e}"
            ok = ok and ds <= S_TOL
            bad += not ok
            d, a, n, r_max = o["case"]
            label = f"d={d} {'raw' if a is None else f'a={a}'} n={n} r_max={r_max}"
            bits = (f"bit-identical {sha[0][:12]}" if sha[0] == sha[1]
                    else f"{sha[0][:12]} != {sha[1][:12]}")
            print(f"{label:<32} S d_rel {ds:.1e} ({bits})  Psi d_rel {dpsi:.1e}  "
                  f"{solve}{'' if ok else '  MISMATCH'}")
    print(f"{len(old) - bad} of {len(old)} match, {same} of {len(old)} S bit-identical; "
          f"worst relative S {worst_s:.1e}, Psi {worst_psi:.1e}, m_gs {worst_m:.1e}")
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--build"]:
        build_all(sys.argv[2], sys.argv[3])
    else:
        sys.exit(main(*sys.argv[1:3]))
