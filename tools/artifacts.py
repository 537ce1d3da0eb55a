"""Compare the CLI artifacts of two source trees of hartreelab byte for byte.

    python tools/artifacts.py OLD_SRC NEW_SRC

Each tree (a directory holding the package `hartreelab`) runs every command
of RUNS, each in its own `python -m hartreelab.cli` subprocess with one BLAS
thread, from a working directory of its own and with the same relative
`--out`, so the resolved `output.dir` and every path a summary records read
the same in both.  The grids are small (n = 64 to 128), so the whole check
takes seconds.

Every file the two trees write is compared byte for byte, except
`traceback.txt`, whose source paths and line numbers differ between any two
checkouts.  Prints per command both exit codes and how many files match, then
each differing file with its first differing line, or the tree it is missing
from.  Exits 0 only if every file and every exit code match.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

FAST = ["--override", "grid.n=64", "--override", "ground_state.residual_tol=1e-2"]
BLOWUP = ["--override", "grid.n=128", "--override", "init.profile=pseudo-conformal",
          "--override", "integrator.dt=2e-3", "--override", "integrator.output_stride=20"]
# name -> CLI arguments; each run writes under out/<name>
RUNS = {
    "ground-state": ["ground-state", "--override", "grid.n=128"],
    "evolve": ["evolve", "--override", "grid.n=64", "--override", "integrator.t_end=0.05"],
    "blowup": ["blowup"] + BLOWUP,
    "concentrate": ["concentrate"] + BLOWUP + ["--override", "concentrate.lambdas=0.5,1.0"],
    "verify": ["verify", "--seed", "0", "--override", "grid.n=128",
               "--override", "verify.fields=5"],
    "sweep": ["sweep", "--override", "sweep.key=model.a",
              "--override", "sweep.values=-0.1,-0.2"] + FAST,
}
SKIP = ("traceback.txt",)


def run_tree(src: str, cwd: str) -> dict[str, int]:
    """Run RUNS with the package of `src` from `cwd`; the exit code of each."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    codes = {}
    for name, args in RUNS.items():
        done = subprocess.run([sys.executable, "-m", "hartreelab.cli", *args,
                               "--out", os.path.join("out", name)],
                              cwd=cwd, env=env, capture_output=True)
        codes[name] = done.returncode
    return codes


def _files(root: str) -> set[str]:
    """Paths under root, relative to it, less the SKIP file names."""
    return {os.path.relpath(os.path.join(top, name), root)
            for top, _, names in os.walk(root) for name in names if name not in SKIP}


def first_difference(old: bytes, new: bytes) -> str:
    """The first line at which two files differ, as 'line k: OLD ... NEW ...'."""
    a, b = old.splitlines(keepends=True), new.splitlines(keepends=True)
    k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    show = (lambda lines: repr(lines[k][:120]) if k < len(lines) else "<end of file>")
    return f"line {k + 1}: OLD {show(a)} NEW {show(b)}"


def compare(old_root: str, new_root: str) -> tuple[int, list[str]]:
    """(files that match, one message per file that does not) of two trees'
    output directories."""
    old, new = _files(old_root), _files(new_root)
    same, why = 0, []
    for rel in sorted(old | new):
        if rel not in new or rel not in old:
            why.append(f"{rel}: missing from {'NEW' if rel in old else 'OLD'}")
            continue
        with open(os.path.join(old_root, rel), "rb") as fo, \
                open(os.path.join(new_root, rel), "rb") as fn:
            a, b = fo.read(), fn.read()
        if a == b:
            same += 1
        else:
            why.append(f"{rel}: {first_difference(a, b)}")
    return same, why


def main(old_src: str, new_src: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [os.path.join(tmp, tag) for tag in ("old", "new")]
        codes = []
        for src, cwd in zip((old_src, new_src), dirs):
            os.mkdir(cwd)
            codes.append(run_tree(src, cwd))
        files_same = files_all = codes_same = 0
        diffs = []
        for name in RUNS:
            same, why = compare(*(os.path.join(cwd, "out", name) for cwd in dirs))
            files_same, files_all = files_same + same, files_all + same + len(why)
            diffs += [f"{name}/{line}" for line in why]
            codes_same += codes[0][name] == codes[1][name]
            print(f"{name:<13} exit {codes[0][name]} / {codes[1][name]}  "
                  f"{same} of {same + len(why)} files match")
    for line in diffs:
        print(f"    DIFF {line}")
    print(f"{files_same} of {files_all} files match, {codes_same} of {len(RUNS)} exit codes")
    return 0 if files_same == files_all and codes_same == len(RUNS) else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
