import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).parents[1] / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


equivalence, artifacts = _tool("equivalence"), _tool("artifacts")

SOLVE = {"m_gs": 1.0, "residual": 1e-6, "floor": 1e-12, "iterations": 6, "q_sha256": "0" * 64}
RAISE = {"error": "residual above residual_tol"}


def case(**solves):
    """One case row of `equivalence.run_all`, each start solving as SOLVE
    unless given."""
    return {"case": [3, -0.1, 256, 12.0], "la_floor": 1e-12,
            **{s: solves.get(s, SOLVE) for s in equivalence.STARTS}}


@pytest.mark.parametrize("ds,ok", [(0.9e-13, True), (1.1e-13, False)])
def test_s_gate(ds, ok):
    # [TRIVIAL] S must stay within 1e-13 relative of the old tree's
    why = equivalence.compare(ds, case(), case())
    assert (why["S"] is None) == ok
    assert why["gaussian"] is None and why["sech"] is None


@pytest.mark.parametrize("dm,ok", [(0.9e-12, True), (1.1e-12, False)])
def test_m_gs_gate(dm, ok):
    # [TRIVIAL] m_gs must stay within 1e-12 relative, per start
    why = equivalence.compare(0.0, case(), case(sech=dict(SOLVE, m_gs=1.0 + dm)))
    assert (why["sech"] is None) == ok
    assert why["S"] is None and why["gaussian"] is None


@pytest.mark.parametrize("frac,ok", [(0.9, True), (1.1, False)])
def test_residual_gate(frac, ok):
    # [TRIVIAL] the residual may move by 1e-9 of the old one plus both
    # floors, the last relative |F| of each solve, plus the old plan's
    # round-off floor eps max(k^2)
    new = dict(SOLVE, floor=2e-12)
    bound = 1e-9 * SOLVE["residual"] + SOLVE["floor"] + new["floor"] + case()["la_floor"]
    new["residual"] = SOLVE["residual"] + frac * bound
    why = equivalence.compare(0.0, case(), case(gaussian=new))
    assert (why["gaussian"] is None) == ok
    assert why["S"] is None and why["sech"] is None


@pytest.mark.parametrize("old,new,ok", [(RAISE, RAISE, True), (RAISE, SOLVE, False),
                                        (SOLVE, RAISE, False)])
def test_raise_gate(old, new, ok):
    # [TRIVIAL] the new tree raises GroundStateError exactly where the old one does
    why = equivalence.compare(0.0, case(sech=old), case(sech=new))
    assert (why["sech"] is None) == ok
    assert why["S"] is None and why["gaussian"] is None


def test_floor_reads_residuals():
    # [TRIVIAL] a solve's floor is the last entry of its |F| history, which
    # the tree records as `residuals`
    assert equivalence.floor(SimpleNamespace(residuals=[1e-3, 1e-8, 2e-13])) == 2e-13


def test_la_floor_reads_the_plan():
    # [TRIVIAL] the round-off floor of the residual is eps max(k^2) of the plan
    plan = SimpleNamespace(k=np.array([1.0, 3.0, 2.0]))
    assert equivalence.la_floor(plan) == 9 * np.finfo(float).eps


def test_artifacts_compare(tmp_path):
    # [TRIVIAL] files are compared byte for byte, the first differing line
    # named; a file in one tree only is named with the tree it is missing
    # from; traceback.txt is left out; what moved is shown below
    old, new = tmp_path / "old", tmp_path / "new"
    for root, last, extra in ((old, "c", "only.csv"), (new, "C", "traceback.txt")):
        (root / "sub").mkdir(parents=True)
        (root / "same.json").write_text("{}\n")
        (root / "sub" / "t.csv").write_text(f"a\nb\n{last}\n")
        (root / extra).write_text("x")
    (old / "traceback.txt").write_text("y")
    (new / "short.txt").write_text("a\n")
    (old / "short.txt").write_text("a\nb\n")
    same, why = artifacts.compare(str(old), str(new))
    assert same == 1
    assert why == ["only.csv: missing from NEW",
                   "short.txt: line 2: OLD b'b\\n' NEW <end of file>",
                   "sub/t.csv: line 3: OLD b'c\\n' NEW b'C\\n'"]
    assert artifacts.compare(str(old / "sub"), str(old / "sub")) == (1, [])
    # below a differing file's first line: for JSON each differing key path
    # with both values (and the relative difference of numbers); for
    # trajectory.csv and ground_state.txt the largest relative difference in
    # each column, and a count where a column is not numeric
    old, new = tmp_path / "old2", tmp_path / "new2"
    for root, m_gs, flag, row, stop in ((old, 2.0, True, "0.5,1.0", "completed"),
                                        (new, 2.000002, False, "0.5,1.001", "halted")):
        root.mkdir()
        (root / "summary.json").write_text(json.dumps(
            {"m_gs": m_gs, "checks": {"ok": flag}, "residuals": [1e-3, 2e-13],
             **({"extra": 1} if root == new else {})}, sort_keys=True))
        (root / "trajectory.csv").write_text(f"t,M,stop_reason\n0.0,1.0,\n{row},{stop}\n")
    _, why = artifacts.compare(str(old), str(new))
    assert [w.split("\n")[1:] for w in why] == [
        ["        checks.ok: OLD True NEW False",
         "        extra: OLD <missing> NEW 1",
         "        m_gs: OLD 2.0 NEW 2.000002  rel 1.0e-06"],
        ["        M: max rel diff 1.0e-03 at row 2 (OLD 1.0 NEW 1.001)",
         "        stop_reason: 1 of 2 values differ"]]
    assert why[1].startswith("trajectory.csv: line 3: ")
    # ground_state.txt columns: the header's six numbers, then r and Q
    gs = "# hartreelab ground state\n# d a n r_max M_gs residual\n3 -0.1 2 1.0 {} 1e-06\n"
    assert artifacts.column_differences(
        "ground_state.txt", (gs.format(2.0) + "0.5 1.0\n1.0 0.5\n").encode(),
        (gs.format(2.5) + "0.5 1.0\n1.0 0.4\n").encode()) == [
        "M_gs: max rel diff 2.0e-01 at row 1 (OLD 2.0 NEW 2.5)",
        "Q: max rel diff 2.0e-01 at row 2 (OLD 0.5 NEW 0.4)"]
