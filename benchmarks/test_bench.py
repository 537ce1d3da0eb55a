"""Tests of the benchmark itself: python -m pytest benchmarks"""

import functools
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

import bench

bench.use_source_tree()

import hartreelab as hl  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def _bindings():
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if name == "hartreelab" or name.startswith("hartreelab.")
            for attr, value in vars(mod).items()}


def test_wrappers_patch_every_binding_and_restore_them():
    before = _bindings()
    originals = {id(fn) for (name, attr), fn in before.items()
                 if inspect.isfunction(fn) and fn.__module__.startswith("hartreelab.")
                 and fn.__module__.split(".")[1] in tracing.LAYERS and not attr.startswith("_")}
    mod = sys.modules
    tracer = tracing.Tracer()
    with tracer.installed():
        # names imported into other modules are patched too
        apply_la = mod["hartreelab.transform"].apply_la
        assert apply_la is not before[("hartreelab.transform", "apply_la")]
        assert mod["hartreelab.ground_state"].apply_la is apply_la
        assert mod["hartreelab.functionals"].apply_la is apply_la
        assert mod["hartreelab.evolution"].potential is mod["hartreelab.hartree"].potential
        assert hl.solve_ground_state is mod["hartreelab.ground_state"].solve_ground_state
        left = [key for key, value in _bindings().items()
                if id(value) in originals and not key[1].startswith("_")]
        assert left == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _solve_and_evolve():
    params = hl.make_params(3, -0.1)
    grid = hl.build_grid(3, 128, 12.0)
    plan, km = hl.build_plan(params, grid), hl.build_kernel(grid, params)
    gs = hl.solve_ground_state(params, grid, plan, km,
                               hl.GroundStateOptions(residual_tol=1e-4))
    u0 = hl.make_initial_data("pseudo-conformal", {"T_star": 1.0}, params, grid, plan, gs.Q)
    cfg = hl.IntegratorConfig(dt=1e-3, t_end=0.05, output_stride=5)
    return gs, hl.evolve(u0, cfg, plan, km)


def test_traced_run_is_bit_identical():
    gs0, traj0 = _solve_and_evolve()
    tracer = tracing.Tracer()
    with tracer.installed():
        gs1, traj1 = _solve_and_evolve()
    assert tracer.spans
    assert gs1.m_gs == gs0.m_gs
    assert np.array_equal(gs1.Q, gs0.Q)
    assert traj1.times == traj0.times
    assert traj1.quantities == traj0.quantities
    assert traj1.gamma == traj0.gamma and traj1.gamma_prime == traj0.gamma_prime
    assert all(np.array_equal(a, b) for a, b in zip(traj1.fields, traj0.fields))
    assert len(traj1.fields) == len(traj0.fields)


def test_self_time_is_duration_minus_covered_children():
    spans = [
        Span(1, "root", 0.0, 10.0, None, 1),
        Span(2, "a", 1.0, 4.0, 1, 1),
        Span(3, "b", 3.0, 6.0, 1, 2),      # overlaps a, as pool sub-runs do
        Span(4, "c", 8.0, 12.0, 1, 3),     # runs past its parent's end
        Span(5, "a.child", 2.0, 3.0, 2, 1),
    ]
    assert tracing.self_times(spans) == {1: 3.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 1.0}


def test_step_counts_only_calls_under_step_spans():
    n = 4
    spans = [Span(1, "evolution.evolve", 0, 10, None, 1)]
    sid = 2
    for k, scheme in enumerate(["strang-split", "strang-split", "midpoint-relaxation"]):
        step = sid
        spans.append(Span(step, "evolution.step", k, k + 1, 1, 1, scheme))
        sid += 1
        for _ in range(2 if scheme == "strang-split" else 3):
            spans.append(Span(sid, "hartree.potential", k, k + 0.1, step, 1, 2 * n * n))
            sid += 1
    # a diagnostic sample's potential is not under a step
    spans.append(Span(sid, "hartree.potential", 5, 6, 1, 1, 2 * n * n))
    m = tracing.layer_metrics(spans)
    assert m["evolution.potential_per_step.strang-split"] == 2
    assert m["evolution.potential_per_step.midpoint-relaxation"] == 3
    assert m["evolution.steps"] == 3
    assert m["hartree.potential_calls"] == 8


def test_sweep_sub_runs_are_ops_under_the_sweep_span(tmp_path):
    sweep = workloads.Sweep(0, n=64, count=2, workers=2, workdir=str(tmp_path))
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.begin_op("sweep"):
            sweep._sweep({})
    runs = [s for s in tracer.spans if s.name == "cli.run_scenario"]
    top = [s for s in runs if s.tag == "sweep"]
    subs = [s for s in runs if s.tag != "sweep"]
    assert len(top) == 1 and len(subs) == 2
    assert all(s.parent == top[0].sid for s in subs)
    assert len({s.op for s in subs} | {top[0].op}) == 3
    m = tracing.layer_metrics(tracer.spans)
    assert m["cli.subruns"] == 2 and m["cli.overlap"] > 0
    assert 0 <= m["cli.self_s"] < m["cli.run_scenario_s"]
    assert os.listdir(tmp_path) == []


def _last_json(argv, monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "OUT", str(tmp_path))
    monkeypatch.setitem(workloads.WORKLOADS, "evolve-sub", functools.partial(
        workloads.SubcriticalEvolution, n=64, t_end=0.02,
        runs=(("strang-split", 1e-3), ("midpoint-relaxation", 2e-3)), output_stride=5))
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert bench.main(argv) == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(trace, kind, monkeypatch, tmp_path):
    out = _last_json(["--workload", "evolve-sub", "--seed", "3", "--seconds", "0",
                      "--trace", str(trace)], monkeypatch, tmp_path)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in bench.load_declared()[kind]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/bench.py", "--workload", "blowup",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
