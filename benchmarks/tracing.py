"""Span tracing of the hartreelab layers, installed from outside the package.

`Tracer.install` replaces every public function of each layer module with a
timing wrapper, at every module attribute bound to it: a function imported by
name (`apply_la` into `ground_state` and `functionals`, `potential` into
`evolution`) is bound in several modules, and each binding is patched.
`Tracer.remove` puts every original back.  Spans stay in memory until the
benchmark writes them at the end of a run.

A span records its name (`<layer>.<function>`), start and end, the span that
was open when it started, and the id of the benchmark op it belongs to.  A
span opened in a worker thread with nothing open in that thread (a sweep
sub-run) starts a new op and takes the span open in the installing thread as
its parent.

Blind spots: work a layer does inline instead of through a public function
is charged to the self time of the caller.  `ground_state` computes the
Hartree potential inline (`km.Kw @ f`) and runs the dense Newton solve
itself, so both show up as `ground_state.solve_self_s`, not under `hartree`
or `transform`.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

#: the package modules that count as layers (`params` does trivial work)
LAYERS = ("grid", "transform", "hartree", "functionals", "ground_state",
          "evolution", "profiles", "cli")

PACKAGE = "hartreelab"
SCHEMES = ("strang-split", "midpoint-relaxation")


def _matvec_flops(matvecs: int):
    """Tag: computed flops of `matvecs` dense n x n products on the field
    argument, 2 n^2 each; a complex field needs twice the real arithmetic."""
    def tag(args, kwargs):
        u = args[1]
        return 2 * matvecs * u.shape[0] ** 2 * (2 if np.iscomplexobj(u) else 1)
    return tag


#: extra value recorded with each span of these functions
TAGS = {
    "transform.transform_forward": _matvec_flops(1),
    "transform.transform_inverse": _matvec_flops(1),
    "transform.apply_la": _matvec_flops(2),
    # the potential is a real product with |u|^2 whatever the field's type
    "hartree.potential": lambda args, kwargs: 2 * args[1].shape[0] ** 2,
    "evolution.step": lambda args, kwargs:
        args[4] if len(args) > 4 else kwargs.get("scheme", "strang-split"),
    "cli.run_scenario": lambda args, kwargs: args[0]["scenario"],
}


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    tag: object = None


class Tracer:
    """Wraps the layers of the package; use `installed()` as a context."""

    def __init__(self):
        self.spans: list[Span] = []
        self.ops: dict[int, str] = {}       # op id -> label
        self.op = 0                         # op of spans opened in the main thread
        self._sids = itertools.count(1)     # next() on a count is atomic
        self._op_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list = []
        self._main_thread = None
        self._patches: list = []            # (module, attribute, original)

    @contextmanager
    def begin_op(self, label: str):
        """Spans opened in the main thread inside the block share one op id."""
        self.op = self._new_op(label)
        try:
            yield
        finally:
            self.op = 0

    def _new_op(self, label: str) -> int:
        with self._lock:
            op = next(self._op_ids)
            self.ops[op] = label
        return op

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        tag_of = TAGS.get(name)
        spans, clock, sids = self.spans, time.perf_counter, self._sids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent, op = stack[-1]
            elif threading.current_thread() is self._main_thread:
                parent, op = None, self.op
            else:
                main = self._main_stack
                parent = main[-1][0] if main else None
                op = self._new_op(name)
            sid = next(sids)
            tag = tag_of(args, kwargs) if tag_of else None
            stack.append((sid, op))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, name, start, end, parent, op, tag))
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self._main_thread = threading.current_thread()
        self._main_stack = self._stack()
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        targets = []
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(fn) \
                        and fn.__module__ == mod.__name__:
                    targets.append((fn, f"{layer}.{attr}"))
        for fn, name in targets:
            wrapper = self._wrap(fn, name)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._patches.append((m, attr, fn))
                        setattr(m, attr, wrapper)

    def remove(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def write(self, path) -> None:
        """Spans and op labels as gzipped JSON."""
        payload = {"ops": {str(k): v for k, v in self.ops.items()},
                   "spans": [asdict(s) for s in sorted(self.spans, key=lambda s: s.sid)]}
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its children cover.

    Children may overlap (sub-runs on a thread pool), so the covered part is
    the length of the union of the child intervals clipped to the parent.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, lo_run, hi_run = 0.0, None, None
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[s.sid] = (s.end - s.start) - covered
    return out


def total_of(spans) -> float:
    return sum((s.end - s.start for s in spans), 0.0)


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics (name -> value) from the spans of one traced cycle.

    A layer a workload does not use reads 0.  `*_gflops` are computed rates:
    the flops from `TAGS` over the summed span time.
    """
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    index = {s.sid: s for s in spans}
    selfs = self_times(spans)

    def total(*names):
        return total_of(s for n in names for s in by[n])

    def calls(*names):
        return sum(len(by[n]) for n in names)

    def self_total(prefix):
        return sum((selfs[s.sid] for s in spans if s.name.startswith(prefix)), 0.0)

    def gflops(*names):
        t = total(*names)
        return sum(s.tag for n in names for s in by[n]) / t / 1e9 if t > 0 else 0.0

    def in_evolve(name):
        return [s for s in by[name]
                if (p := index.get(s.parent)) is not None and p.name == "evolution.evolve"]

    def enclosing_step(s):
        while (s := index.get(s.parent)) is not None:
            if s.name == "evolution.step":
                return s
        return None

    steps = {sc: [s for s in by["evolution.step"] if s.tag == sc] for sc in SCHEMES}
    under = {sc: defaultdict(int) for sc in SCHEMES}
    for name in ("hartree.potential", "transform.transform_forward",
                 "transform.transform_inverse", "transform.apply_la"):
        for s in by[name]:
            st = enclosing_step(s)
            if st is not None and st.tag in under:
                under[st.tag][name] += 1
    # a diagnostic sample is one functionals and one virial call inside evolve
    samples = [1e3 * (q.end - q.start + v.end - v.start) for q, v in zip(
        in_evolve("functionals.functionals"), in_evolve("evolution.virial"))]
    derivs = sorted(by["transform.radial_derivative"], key=lambda s: s.start)
    sweep_s = total_of(s for s in by["cli.run_scenario"] if s.tag == "sweep")
    subruns = [s for s in by["cli.run_scenario"] if s.tag != "sweep"]
    evolve_s = total("evolution.evolve")
    nsteps = calls("evolution.step")

    m = {
        "grid.build_s": total("grid.build_grid"),
        "transform.build_plan_s": total("transform.build_plan"),
        "transform.resample_calls": calls("transform.resample"),
        "transform.resample_s": total("transform.resample"),
        "transform.la_matrix_s": total("transform.la_matrix"),
        "transform.fwd_inv_calls": calls("transform.transform_forward",
                                         "transform.transform_inverse"),
        "transform.fwd_inv_s": total("transform.transform_forward",
                                     "transform.transform_inverse"),
        "transform.fwd_inv_gflops": gflops("transform.transform_forward",
                                           "transform.transform_inverse"),
        "transform.apply_la_calls": calls("transform.apply_la"),
        "transform.apply_la_s": total("transform.apply_la"),
        "transform.radial_derivative_calls": len(derivs),
        "transform.radial_derivative_s": total_of(derivs),
        "transform.radial_derivative_first_s": total_of(derivs[:1]),
        "hartree.build_kernel_s": total("hartree.build_kernel"),
        "hartree.potential_calls": calls("hartree.potential"),
        "hartree.potential_s": total("hartree.potential"),
        "hartree.potential_gflops": gflops("hartree.potential"),
        "functionals.calls": calls("functionals.functionals"),
        "functionals.s": total("functionals.functionals"),
        "ground_state.solve_s": total("ground_state.solve_ground_state"),
        "ground_state.solve_self_s": self_total("ground_state.solve_ground_state"),
        "ground_state.el_residual_s": total("ground_state.el_residual"),
        "profiles.make_initial_data_s": total("profiles.make_initial_data"),
        "evolution.steps": nsteps,
        "evolution.steps_per_s": nsteps / evolve_s if evolve_s > 0 else 0.0,
        "evolution.evolve_self_s": self_total("evolution.evolve"),
        "evolution.samples": len(samples),
        "evolution.sample_ms": _percentile(samples, 50),
        "evolution.fit_blowup_s": total("evolution.fit_blowup"),
        "evolution.concentration_s": total("evolution.concentration"),
        "cli.run_scenario_s": sweep_s,
        "cli.self_s": self_total("cli."),
        "cli.subruns": len(subruns),
        "cli.overlap": total_of(subruns) / sweep_s if sweep_s > 0 else 0.0,
    }
    for sc in SCHEMES:
        durations = [1e3 * (s.end - s.start) for s in steps[sc]]
        count = len(steps[sc])
        u = under[sc]
        m[f"evolution.step_ms.{sc}.p50"] = _percentile(durations, 50)
        m[f"evolution.step_ms.{sc}.p99"] = _percentile(durations, 99)
        m[f"evolution.potential_per_step.{sc}"] = \
            u["hartree.potential"] / count if count else 0.0
        m[f"evolution.matvecs_per_step.{sc}"] = (
            u["hartree.potential"] + u["transform.transform_forward"]
            + u["transform.transform_inverse"] + 2 * u["transform.apply_la"]
        ) / count if count else 0.0
    return m
