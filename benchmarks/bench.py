"""hartreelab benchmark: one workload per invocation, one JSON result line.

    python3 benchmarks/bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from `src/` next to
this directory; without it the command exits with status 2 and prints no
result.  See README.md in this directory for the workloads and metrics.

An untraced run builds the workload's discretisations and runs its ops, one
cycle after another, until `--seconds` have passed (always at least one
cycle), then repeats the set-up alone until it has `MIN_SETUPS` set-up
timings.  `--trace 1` then installs the span tracer, runs one more cycle
under it, checks that the traced cycle's results are bit-identical to the
untraced ones, and reports the per-layer metrics instead of the end-to-end
ones.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("evolve-sub", "blowup", "sweep")
#: set-up timings per run that setup_s is the median of
MIN_SETUPS = 5


def use_source_tree() -> None:
    """Import hartreelab from this checkout's `src/`, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "hartreelab", "__init__.py")):
        raise FileNotFoundError(f"no hartreelab sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import hartreelab
    if os.path.dirname(os.path.dirname(os.path.abspath(hartreelab.__file__))) != SRC:
        raise ImportError(f"hartreelab was imported from {hartreelab.__file__}, not {SRC}")


def load_declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@dataclass
class Cycle:
    setup_s: float
    wall_s: float                       # the ops, after set-up
    attempted: int = 0
    problems: list = field(default_factory=list)   # (op label, [failed checks])
    digests: list = field(default_factory=list)    # one per op function
    op_s: dict = field(default_factory=dict)       # op label -> seconds
    figures: list = field(default_factory=list)    # (op label, figures)

    @property
    def failed(self) -> int:
        return sum(1 for _, bad in self.problems if bad)


def run_cycle(workload, tracer=None) -> Cycle:
    """Set up and run every op once; an op that raises counts as failed."""
    from workloads import digest
    scope = tracer.begin_op if tracer else (lambda label: nullcontext())
    clock = time.perf_counter
    t0 = clock()
    with scope("setup"):
        ctx = workload.setup()
    t1 = clock()
    cycle = Cycle(setup_s=t1 - t0, wall_s=0.0)
    state = {}
    for label, count, fn in workload.ops(ctx):
        start = clock()
        try:
            with scope(label):
                out = fn(state)
            problems = out.problems
            cycle.digests.append(digest(out.arrays))
            cycle.figures.append((label, out.figures))
        except Exception:  # noqa: BLE001 - a raising op is a failed op
            problems = [[traceback.format_exc(limit=4)]] * count
            cycle.digests.append(None)
        cycle.op_s[label] = clock() - start
        cycle.attempted += len(problems)
        cycle.problems += [(label, bad) for bad in problems]
    cycle.wall_s = clock() - t1
    return cycle


def warm_up() -> None:
    """Load the lazily imported numerical code and start the BLAS threads on
    a tiny problem, so the first timed set-up does not pay for it."""
    import hartreelab as hl
    params = hl.make_params(3, -0.1)
    grid = hl.build_grid(3, 32, 12.0)
    plan, km = hl.build_plan(params, grid), hl.build_kernel(grid, params)
    hl.functionals(grid.r ** -params.rho, plan, km)


def _blas_threads():
    """Thread count reported by the BLAS library numpy loaded, if it tells."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "blas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads", "mkl_get_max_threads",
                    "bli_thread_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return {"library": os.path.basename(path), "function": sym,
                        "threads": int(fn())}
    return None


def _git_sha():
    """HEAD of the checkout, read from .git without running git; None if the
    checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def metadata(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {k: os.environ[k] for k in sorted(os.environ)
           if k.endswith("_NUM_THREADS") or k in ("OPENBLAS_CORETYPE",)}
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration"),
                 "threads": _blas_threads(), "thread_env": env},
        "git_sha": _git_sha(),
    }


def _median(xs):
    return statistics.median(xs) if xs else math.nan


def detail_figures(cycles) -> dict:
    """The workload's own figures: solve and evolve speed, accuracy."""
    figs = [(label, f) for c in cycles for label, f in c.figures]
    solve = [sum(t for label, t in c.op_s.items() if label.startswith("solve"))
             for c in cycles]
    evolve = [sum(t for label, t in c.op_s.items() if label.startswith("evolve"))
              for c in cycles]
    steps = sum(f.get("steps", 0) for label, f in figs if label.startswith("evolve")) \
        / max(len(cycles), 1)
    out = {}
    if any(solve):
        out["solve_s"] = (_median(solve), "s")
    if steps:
        out["steps_per_s"] = (steps / _median(evolve), "steps/s")
    attempted = sum(c.attempted for c in cycles)
    out["fail_frac"] = (sum(c.failed for c in cycles) / attempted, "ratio")
    for key in ("gs_residual", "energy_drift", "blowup_rate_err"):
        vals = [f[key] for _, f in figs if key in f]
        if vals:
            out[key] = (max(vals), "1")
    return out


def end_to_end_metrics(cycles, setups, peak_rss_mb) -> dict:
    return {
        "setup_s": {"value": _median(setups), "unit": "s"},
        "wall_s": {"value": _median([c.wall_s for c in cycles]), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
    }


def per_layer_metrics(spans, traced: Cycle, untraced_wall_s) -> dict:
    import tracing
    units = {m["name"]: m["unit"] for m in load_declared()["per_layer"]}
    values = tracing.layer_metrics(spans)
    # solver iterations are a result, not a span count
    values["ground_state.iterations"] = sum(f.get("iterations", 0) for _, f in traced.figures)
    values["trace_overhead_frac"] = (traced.setup_s + traced.wall_s) / untraced_wall_s - 1.0
    return {k: {"value": v, "unit": units[k]} for k, v in sorted(values.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_source_tree()
    except (FileNotFoundError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    import workloads
    os.makedirs(OUT, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    kwargs = {"workdir": OUT} if cls is workloads.Sweep else {}
    workload = cls(args.seed, **kwargs)
    meta = metadata(args.seed)
    warm_up()

    begin = time.perf_counter()
    cycles = [run_cycle(workload)]
    while time.perf_counter() - begin < args.seconds:
        cycles.append(run_cycle(workload))
    setups = [c.setup_s for c in cycles]
    if not args.trace:
        while len(setups) < MIN_SETUPS:
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = cycles[0].digests
    mismatch = [f"cycle {i} results differ from cycle 0"
                for i, c in enumerate(cycles) if c.digests != reference]
    runs = list(cycles)
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = run_cycle(workload, tracer)
        runs.append(traced)
        if traced.digests != reference:
            mismatch.append("traced results differ from untraced results")
        metrics = per_layer_metrics(tracer.spans, traced,
                                    _median([c.setup_s + c.wall_s for c in cycles]))
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json.gz"))
    else:
        metrics = end_to_end_metrics(cycles, setups, peak_rss_mb)

    attempted = sum(c.attempted for c in runs)
    failed = sum(c.failed for c in runs)
    problems = [f"{label}: {msg}" for c in runs for label, bad in c.problems for msg in bad]
    correct = failed == 0 and not mismatch and None not in reference
    detail = detail_figures(cycles)

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "metadata": meta, "cycles": len(cycles), "setups": setups,
              "wall_s": [c.wall_s for c in cycles],
              "op_s": [c.op_s for c in cycles],
              "figures": [c.figures for c in cycles],
              "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
              "problems": problems + mismatch, "metrics": metrics}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"# {args.workload} seed={args.seed} cycles={len(cycles)} "
          f"nproc={meta['nproc']} blas={meta['blas']['name']} "
          f"threads={(meta['blas']['threads'] or {}).get('threads')} git={meta['git_sha']}")
    for name, (value, unit) in detail.items():
        print(f"#   {name:<16} {value:.6g} {unit}")
    for msg in problems + mismatch:
        print(f"# FAILED {msg}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
