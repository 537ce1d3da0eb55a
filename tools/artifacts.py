"""Compare the CLI artifacts of two source trees of hartreelab byte for byte.

    python tools/artifacts.py OLD_SRC NEW_SRC

Each tree (a directory holding the package `hartreelab`) runs every command
of RUNS, each in its own `python -m hartreelab.cli` subprocess with one BLAS
thread, from a working directory of its own and with the same relative
`--out`, so the resolved `output.dir` and every path a summary records read
the same in both.  The runs are in d = 3 and 4 on small grids (n = 64 to
128, one of them odd), so the whole check takes seconds.

Every file the two trees write is compared byte for byte, except
`traceback.txt`, whose source paths and line numbers differ between any two
checkouts.  Prints per command both exit codes and how many files match, then
each differing file with its first differing line, or the tree it is missing
from.  Below that line it shows what moved: for a JSON file each differing
key path with its OLD and NEW values (and their relative difference for
numbers), and for `trajectory.csv` and `ground_state.txt` the largest
relative difference in each column.  Exits 0 only if every file and every
exit code match.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

FAST = ["--override", "grid.n=64", "--override", "ground_state.residual_tol=1e-2"]
BLOWUP = ["--override", "grid.n=128", "--override", "init.profile=pseudo-conformal",
          "--override", "integrator.dt=2e-3", "--override", "integrator.output_stride=20"]
D4 = ["--override", "model.d=4", "--override", "model.a=-0.5"]
# name -> CLI arguments (a name of at most 13 characters); each run writes
# under out/<name>
RUNS = {
    "ground-state": ["ground-state", "--override", "grid.n=128"],
    # reads the field the ground-state run wrote, so it runs after it
    "evolve-file": ["evolve", "--override", "grid.n=128", "--override", "init.profile=file",
                    "--override", "init.file=out/ground-state/ground_state.txt",
                    "--override", "integrator.t_end=0.05"],
    "evolve": ["evolve", "--override", "grid.n=64", "--override", "integrator.t_end=0.05"],
    "blowup": ["blowup"] + BLOWUP,
    "concentrate": ["concentrate"] + BLOWUP + ["--override", "concentrate.lambdas=0.5,1.0"],
    "verify": ["verify", "--seed", "0", "--override", "grid.n=128",
               "--override", "verify.fields=5"],
    "sweep": ["sweep", "--override", "sweep.key=model.a",
              "--override", "sweep.values=-0.1,-0.2"] + FAST,
    # d = 4 reaches the general kernel rows; an odd n the odd-n kernel product
    "ground-d4": ["ground-state"] + D4 + ["--override", "grid.n=128"],
    "evolve-d4-odd": ["evolve"] + D4 + ["--override", "grid.n=65",
                                        "--override", "integrator.t_end=0.05"],
    "verify-d4": ["verify", "--seed", "0"] + D4 + ["--override", "grid.n=128",
                                                   "--override", "verify.fields=5"],
}
SKIP = ("traceback.txt",)
GS_HEADER = ("d", "a", "n", "r_max", "M_gs", "residual")   # ground_state.txt
DETAIL_LINES = 20        # most detail lines shown per differing file


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


class _Missing:
    def __repr__(self):
        return "<missing>"


def _rel(a, b) -> float | None:
    """|b - a| / max(|a|, |b|) of two numbers or numeric strings (inf where
    either is NaN), None if either is not a number."""
    if isinstance(a, bool) or isinstance(b, bool):
        return None
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return None
    if x == y:
        return 0.0
    r = abs(y - x) / max(abs(x), abs(y))
    return math.inf if math.isnan(r) else r


def json_differences(old: bytes, new: bytes) -> list[str]:
    """'path: OLD a NEW b' for each key path at which two JSON documents
    differ (each value cut at 120 characters), with the relative difference
    of two numbers."""
    lines = []

    def walk(path, a, b):
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(a.keys() | b.keys()):
                walk(f"{path}.{key}" if path else key,
                     a.get(key, _Missing()), b.get(key, _Missing()))
        elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for i, (x, y) in enumerate(zip(a, b)):
                walk(f"{path}[{i}]", x, y)
        elif repr(a) != repr(b):
            rel = _rel(a, b)
            lines.append(f"{path}: OLD {repr(a)[:120]} NEW {repr(b)[:120]}"
                         + ("" if rel is None else f"  rel {rel:.1e}"))

    walk("", json.loads(old), json.loads(new))
    return lines


def _columns(name: str, data: bytes) -> dict[str, list[str]]:
    """Column name -> values of a trajectory.csv or ground_state.txt."""
    text = data.decode()
    if name == "trajectory.csv":
        header, *rows = csv.reader(io.StringIO(text))
        return {col: [row[j] for row in rows] for j, col in enumerate(header)}
    head, *rows = [ln.split() for ln in text.splitlines()
                   if ln.strip() and not ln.startswith("#")]
    return {**{col: [v] for col, v in zip(GS_HEADER, head)},
            "r": [row[0] for row in rows], "Q": [row[1] for row in rows]}


def column_differences(name: str, old: bytes, new: bytes) -> list[str]:
    """The largest relative difference in each numeric column that moved,
    with its row, and how many values moved in each other column."""
    a, b = _columns(name, old), _columns(name, new)
    lines = []
    for col in dict.fromkeys([*a, *b]):
        x, y = a.get(col, []), b.get(col, [])
        if len(x) != len(y):
            lines.append(f"{col}: OLD {len(x)} rows NEW {len(y)}")
        pairs = [(i, p, q) for i, (p, q) in enumerate(zip(x, y)) if p != q]
        rels = [(r, i) for i, p, q in pairs if (r := _rel(p, q)) is not None]
        if rels:
            worst, i = max(rels)
            lines.append(f"{col}: max rel diff {worst:.1e} at row {i + 1} "
                         f"(OLD {x[i]} NEW {y[i]})")
        if len(rels) < len(pairs):
            lines.append(f"{col}: {len(pairs) - len(rels)} of {min(len(x), len(y))} "
                         f"values differ")
    return lines


def details(path: str, old: bytes, new: bytes) -> list[str]:
    """What moved between two versions of the file at `path`, at most
    DETAIL_LINES lines; empty for a file of another kind."""
    name = os.path.basename(path)
    try:
        if name.endswith(".json"):
            lines = json_differences(old, new)
        elif name in ("trajectory.csv", "ground_state.txt"):
            lines = column_differences(name, old, new)
        else:
            return []
    except (ValueError, IndexError, csv.Error):
        return ["(no detail: the file does not parse)"]
    if len(lines) > DETAIL_LINES:
        lines = lines[:DETAIL_LINES] + [f"... {len(lines) - DETAIL_LINES} more"]
    return lines


def compare(old_root: str, new_root: str) -> tuple[int, list[str]]:
    """(files that match, one message per file that does not) of two trees'
    output directories.  A message is the file's first differing line, then
    one indented line per entry of its `details`."""
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
            why.append("\n        ".join([f"{rel}: {first_difference(a, b)}",
                                            *details(rel, a, b)]))
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
