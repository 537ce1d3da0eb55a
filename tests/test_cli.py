import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import hartreelab
from hartreelab import build_grid, cli, load_ground_state
from hartreelab.cli import (ConfigError, SCHEMA, config_hash, main,
                            parse_config, run_scenario)
from hartreelab.evolution import BOUNDARY_TOL, IntegratorConfig
from hartreelab.ground_state import TOL
from hartreelab.grid import boundary_mass_fraction

FAST_GRID = "grid.n = 64\ngrid.r_max = 10.0\n"
# a ground state on FAST_GRID keeps 4.6e-8 of its mass in the outer cells,
# above evolution.BOUNDARY_TOL; at r_max = 12 it keeps 1.6e-9
GS_GRID = "grid.n = 64\ngrid.r_max = 12.0\n"
FAST_GS = "ground_state.residual_tol = 1e-2\n"


def test_parse_defaults():
    # [TRIVIAL] empty config resolves every key to its schema default
    cfg = parse_config("")
    assert cfg["scenario"] == "ground-state"
    assert cfg["model.d"] == 3 and cfg["model.a"] == -0.1
    assert cfg["grid.n"] == 256
    assert set(cfg) == set(SCHEMA)


def test_schema_defaults_are_the_library_defaults():
    # [TRIVIAL] with the integrator.*, ground_state.* and init.<param> rows
    # read from IntegratorConfig, GroundStateOptions and ProfileOptions, the
    # table is still the one the default config hash was taken on: every key
    # in order, with its parser and its default
    rows = [(k, parse.__name__, repr(default)) for k, (parse, default) in SCHEMA.items()]
    assert rows == [
        ("scenario", "str", "'ground-state'"), ("model.d", "int", "3"),
        ("model.a", "float", "-0.1"), ("grid.n", "int", "256"),
        ("grid.r_max", "float", "12.0"), ("integrator.dt", "float", "0.001"),
        ("integrator.t_end", "float", "1.0"), ("integrator.scheme", "str", "'strang-split'"),
        ("integrator.output_stride", "int", "10"),
        ("integrator.min_scale_cells", "float", "4.0"),
        ("ground_state.residual_tol", "float", "1e-05"),
        ("init.profile", "str", "'gaussian'"), ("init.file", "str", "''"),
        ("init.sigma", "float", "1.0"), ("init.amplitude", "float", "1.0"),
        ("init.mu", "float", "1.0"), ("init.nu_s", "float", "1.0"),
        ("init.T_star", "float", "1.0"), ("init.theta", "float", "0.0"),
        ("init.t0", "float", "0.0"), ("init.s0", "float", "2.0"),
        ("init.width", "float", "0.5"), ("output.dir", "str", "'out'"),
        ("seed", "int", "0"), ("concentrate.lambdas", "_float_list", "[1.0]"),
        ("verify.fields", "int", "50"), ("sweep.scenario", "str", "'ground-state'"),
        ("sweep.key", "str", "''"), ("sweep.values", "_str_list", "[]"),
        ("sweep.workers", "int", "1")]
    assert config_hash(parse_config("")) == "4b17551747e9"


def test_verify_scenario(tmp_path):
    # [DERIVED] the verify scenario finds no violation of the paper's
    # inequalities on 10 seeded fields, and a rerun writes the same summary
    text = "grid.n = 128\nscenario = verify\nverify.fields = 10\nseed = 0\n"
    for tag in ("r1", "r2"):
        summary = run_scenario(parse_config(text), str(tmp_path / tag))
        assert summary["pass"], summary
        assert summary["fields"] == 10
        assert summary["violations"] == {"hardy": 0, "gn": 0, "rearrangement": 0,
                                         "hls": 0, "rotated_energy": 0,
                                         "discriminant": 0}
        assert summary["checks"].keys() == summary["violations"].keys()
    blobs = [(tmp_path / tag / "summary.json").read_bytes() for tag in ("r1", "r2")]
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("d,a", [(6, -1.0), (7, -3.0)])
def test_verify_rearrangement_on_its_own_measure(tmp_path, d, a):
    # [PAPER] the rearrangement keeps the mass and lowers the gradient in d >= 6
    # too, where the grid's origin weight is made positive; a check that summed
    # over the signed origin weight counted 1 and 6 violations of 20 here at
    # seed 0
    out = str(tmp_path / "v")
    main(["verify", "--seed", "0", "--out", out, "--override", f"model.d={d}",
          "--override", f"model.a={a}", "--override", "verify.fields=20"])
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["fields"] == 20
    assert summary["violations"]["rearrangement"] == 0, summary["violations"]


def test_verify_hls_count_is_that_of_the_real_product(tmp_path, monkeypatch):
    # [TRIVIAL] the HLS audit's form, a complex product over Kw's column
    # pairs at even n, counts what the real product Kw @ f counts at seed 0
    text = "grid.n = 128\nscenario = verify\nverify.fields = 10\nseed = 0\n"
    complex_run = run_scenario(parse_config(text), str(tmp_path / "c"))
    monkeypatch.setattr(cli, "apply_kernel", lambda km, f: km.Kw @ f)
    real_run = run_scenario(parse_config(text), str(tmp_path / "r"))
    assert complex_run["violations"]["hls"] == real_run["violations"]["hls"] == 0
    assert complex_run["violations"] == real_run["violations"]


def test_verify_hls_pairs_leave_a_margin(tmp_path, monkeypatch):
    # [DERIVED] each HLS pair, f = u^2 of a real field and g = |w|^2 of the
    # complex field at its index, leaves Cauchy-Schwarz a margin of more than
    # 1e-6 of its right side, so the check can fail; the pairs g = (1 + 0.05 z)^2 f
    # it read before were proportional and met it with equality to 4.2e-14
    calls, apply_kernel = [], cli.apply_kernel

    def recorded(km, x):
        out = apply_kernel(km, x)
        calls.append((x, float(np.sum(km.grid.w * x * out))))
        return out
    monkeypatch.setattr(cli, "apply_kernel", recorded)
    text = "grid.n = 128\nscenario = verify\nverify.fields = 10\nseed = 0\n"
    assert run_scenario(parse_config(text), str(tmp_path / "v"))["violations"]["hls"] == 0
    assert len(calls) == 4 * 10
    for (f, Bf), (g, Bg), (s, Bs), (t, Bt) in zip(*[iter(calls)] * 4):
        assert np.array_equal(s, f + g) and np.array_equal(t, f - g)
        lhs, rhs = abs(Bf - Bg), math.sqrt(max(Bs, 0.0) * max(Bt, 0.0))
        assert rhs - lhs > 1e-6 * rhs, (lhs, rhs)


def _first_call_spoiled(fn, spoil):
    """fn, with its first call's result passed through spoil."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        out = fn(*args, **kwargs)
        return spoil(out) if len(calls) == 1 else out
    return wrapped


@pytest.mark.parametrize("name, count, spoil", [
    ("hardy_ratio", "hardy", lambda ratio: 1e9),
    ("gn_audit", "gn", lambda count: count + 1),
    ("rearrange_decreasing", "rearrangement", lambda v: 2 * v),
    ("apply_kernel", "hls", lambda kf: 10 * kf),
    ("rotated_energy_check", "rotated_energy",
     lambda rep: dataclasses.replace(rep, mismatch=math.inf)),
    ("rotated_energy_check", "discriminant",
     lambda rep: dataclasses.replace(rep, discriminant=math.inf)),
])
def test_verify_counts_each_violation(tmp_path, monkeypatch, name, count, spoil):
    # [TRIVIAL] spoiling what one check reads for the first field makes that
    # check's count 1, the others 0, and the run fail on that check alone
    monkeypatch.setattr(cli, name, _first_call_spoiled(getattr(cli, name), spoil))
    text = "grid.n = 128\nscenario = verify\nverify.fields = 2\nseed = 0\n"
    summary = run_scenario(parse_config(text), str(tmp_path / "v"))
    assert summary["violations"] == dict.fromkeys(summary["violations"], 0) | {count: 1}
    assert summary["pass"] is False
    assert sum(not ok for ok in summary["checks"].values()) == 1


def test_verify_forms_the_hardy_weights_once(tmp_path, monkeypatch):
    # [TRIVIAL] a verify run forms each measure once: the grid's weights in
    # build_grid, and the Hardy ratio's weights in one call for all its real
    # fields, not once per field.  The package's `functionals` function
    # shadows the submodule's attribute, so the module comes from sys.modules
    calls, class_weights = [], sys.modules["hartreelab.grid"].class_weights

    def counted(*args):
        calls.append(args[1:])
        return class_weights(*args)

    for module in ("hartreelab.grid", "hartreelab.functionals"):
        monkeypatch.setattr(sys.modules[module], "class_weights", counted)
    text = "grid.n = 128\nscenario = verify\nverify.fields = 4\nseed = 0\n"
    assert run_scenario(parse_config(text), str(tmp_path / "v"))["pass"] is True
    assert len(calls) == 2, calls


def test_default_sweep_runs_serially():
    # [TRIVIAL] a sweep config that names no worker count runs its sub-runs
    # one at a time: the default is the constant 1, which the config hash sees
    cfg = parse_config("scenario = sweep\nsweep.key = model.a\nsweep.values = -0.1, -0.2\n")
    assert cfg["sweep.workers"] == 1
    assert SCHEMA["sweep.workers"] == (int, 1)


def test_parse_values_comments_overrides():
    # [TRIVIAL] comments, whitespace, and override precedence; a key set
    # twice by the text, or twice by the overrides, is an error naming both
    text = "model.d = 4   # dimension\n\nmodel.a = -0.5\ngrid.n = 128\n"
    cfg = parse_config(text, overrides=["grid.n = 96"])
    assert cfg["model.d"] == 4
    assert cfg["model.a"] == -0.5
    assert cfg["grid.n"] == 96          # override wins
    with pytest.raises(ConfigError) as exc:
        parse_config("grid.n = 64\ngrid.n = 128\n", overrides=["seed=1", "seed=2"])
    assert exc.value.errors == ["line 2: key 'grid.n' already set by line 1",
                                "override 'seed=2': key 'seed' already set by "
                                "override 'seed=1'"]


def test_invalid_coupling_names_bound():
    # [DERIVED] a = -1.0 in d = 3 is outside (-1/4, 0]; message cites the bound
    with pytest.raises(ConfigError) as exc:
        parse_config("model.a = -1.0")
    assert any("model.a" in e and "-0.25" in e for e in exc.value.errors)


def test_unknown_key_named():
    # [TRIVIAL]
    with pytest.raises(ConfigError) as exc:
        parse_config("grid.rmin = 0.1")
    assert any("grid.rmin" in e for e in exc.value.errors)


def test_all_errors_collected():
    # [TRIVIAL] validation reports every problem, not just the first
    text = "grid.rmin = 0.1\nmodel.a = -1.0\nintegrator.dt = zero\nbogus line\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    errs = "\n".join(exc.value.errors)
    assert "grid.rmin" in errs and "model.a" in errs
    assert "integrator.dt" in errs and "bogus line" in errs
    assert len(exc.value.errors) >= 4


def test_every_solver_and_integrator_error_named():
    # [TRIVIAL] several bad integrator.* values and a bad ground_state.* one
    # are each reported under their own key, not only the first of a section
    bad = {"integrator.scheme": "euler", "integrator.output_stride": "0",
           "integrator.min_scale_cells": "-1", "ground_state.residual_tol": "0"}
    with pytest.raises(ConfigError) as exc:
        parse_config("", [f"{k} = {v}" for k, v in bad.items()])
    keys = sorted(err.split(":", 1)[0] for err in exc.value.errors)
    assert keys == sorted(f"key {k}" for k in bad)


def test_config_hash_ignores_output_dir():
    # [TRIVIAL] hash is stable under relocation, sensitive to physics keys
    c1 = parse_config("output.dir = a")
    c2 = parse_config("output.dir = b")
    c3 = parse_config("model.a = -0.2")
    assert config_hash(c1) == config_hash(c2)
    assert config_hash(c1) != config_hash(c3)


def test_ground_state_scenario_artifacts(tmp_path):
    # [DERIVED] summary.json + ground_state.txt written; checks pass at n=64
    cfg = parse_config(GS_GRID + FAST_GS + "scenario = ground-state")
    out = str(tmp_path / "gs")
    summary = run_scenario(cfg, out)
    assert summary["pass"], summary
    assert os.path.exists(os.path.join(out, "ground_state.txt"))
    with open(os.path.join(out, "summary.json")) as fh:
        on_disk = json.load(fh)
    assert on_disk["m_gs"] == summary["m_gs"]
    assert on_disk["config_hash"] == config_hash(cfg)
    # how the solver converged: the relative |F| of each iterate, the final
    # balanced dilation, the share of M(Q) in the outer cells and the wall's
    # Pohozaev term
    diag = on_disk["diagnostics"]
    assert set(diag) == {"residuals", "nu_final", "boundary_mass_fraction",
                         "pohozaev_wall"}
    assert diag["pohozaev_wall"] > 0
    _, _, Q = load_ground_state(os.path.join(out, "ground_state.txt"))
    assert diag["boundary_mass_fraction"] == \
        boundary_mass_fraction(build_grid(3, 64, 12.0), Q)
    assert len(diag["residuals"]) == on_disk["iterations"] >= 1
    assert diag["residuals"][-1] < TOL
    assert abs(diag["nu_final"] - 1) < 1e-3


def test_ground_state_boundary_mass_fails(tmp_path):
    # [TRIVIAL] a ground state with more than evolution.BOUNDARY_TOL of its
    # mass in the outer cells fails its run: on FAST_GRID the share is 4.6e-8
    # while every other check passes
    summary = run_scenario(parse_config(FAST_GRID + FAST_GS), str(tmp_path / "gs"))
    checks = summary["checks"]
    assert checks["boundary_mass"] is False
    assert all(v for key, v in checks.items() if key != "boundary_mass")
    assert summary["diagnostics"]["boundary_mass_fraction"] > BOUNDARY_TOL
    assert summary["pass"] is False


def test_evolve_scenario_trajectory(tmp_path):
    # [DERIVED] trajectory.csv has the documented header and a final
    # stop_reason cell; mass-conservation check holds
    cfg = parse_config(FAST_GRID + "scenario = evolve\n"
                       "init.amplitude = 0.4\nintegrator.dt = 1e-3\n"
                       "integrator.t_end = 0.05\nintegrator.output_stride = 10\n"
                       "concentrate.lambdas = 1.0,2.0\n")
    out = str(tmp_path / "ev")
    summary = run_scenario(cfg, out)
    assert summary["pass"], summary
    with open(os.path.join(out, "trajectory.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "t,M,H,E,L_V,Gamma,GammaPrime,conc@1.0,conc@2.0,stop_reason"
    assert lines[-1].endswith("completed")
    for mid in lines[1:-1]:
        assert mid.endswith(",")
    diag, _ = _check_diagnostics(out)
    assert diag["boundary_flagged_samples"] == 0
    assert diag["stop_value"] is None
    assert summary["mass_drift"] <= diag["max_mass_drift"]["value"] < 1e-10


def test_d6_evolve_passes_mass_conserved(tmp_path, capsys):
    # [PAPER] in d = 6 the origin weight is made positive, so the propagator
    # conserves the mass the summary measures: the gaussian run to t = 0.5
    # passes mass_conserved and exits 0 (drift 1.5e-8 and exit 1 when the
    # plan clipped the weight to another metric)
    out = str(tmp_path / "ev6")
    assert main(["evolve", "--out", out, "--override", "model.d=6",
                 "--override", "model.a=-1.0", "--override", "init.amplitude=0.3",
                 "--override", "integrator.t_end=0.5"]) == 0
    assert json.loads(capsys.readouterr().out.strip())["pass"] is True
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["checks"]["mass_conserved"], summary
    assert summary["mass_drift"] < 1e-10


def _check_diagnostics(out, exact=False):
    """The diagnostics block of summary.json and the H column of
    trajectory.csv, with the block's worst relative mass and energy drifts
    and their times checked against the samples in the CSV.  `exact` runs
    also record `max_exact_error`."""
    with open(os.path.join(out, "summary.json")) as fh:
        diag = json.load(fh)["diagnostics"]
    with open(os.path.join(out, "trajectory.csv")) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    t, M, H, E = (np.array([float(r[i]) for r in rows]) for i in (0, 1, 2, 3))
    for key, x in (("max_mass_drift", M), ("max_energy_drift", E)):
        drift = np.abs(x - x[0]) / abs(x[0])
        i = int(np.argmax(drift))
        assert diag[key] == {"value": drift[i], "t": t[i]}, key
    keys = {"boundary_flagged_samples", "max_mass_drift", "max_energy_drift", "stop_value"}
    assert set(diag) == (keys | {"max_exact_error"} if exact else keys)
    assert 0 <= diag["boundary_flagged_samples"] <= len(rows)
    return diag, H


def _max_exact_error(cfg):
    """The worst relative L2 distance of a pseudo-conformal run's samples
    from the exact solution Q was dilated from (T* = 1, theta = t0 = 0),
    recomputed from a second build, solve and evolution, and its time."""
    params, grid, plan, km = cli._build(cfg)
    u0, gs = cli._initial_data(cfg, params, grid, plan, km)
    traj = hartreelab.evolve(u0, cli._options(cfg, "integrator", IntegratorConfig),
                             plan, km)
    errs = []
    for t, u in zip(traj.times, traj.fields):
        exact = hartreelab.pseudo_conformal_family(gs.Q, 1.0, 0.0, t, plan)
        errs.append(math.sqrt(hartreelab.functionals(u - exact, plan, km).M
                              / hartreelab.functionals(exact, plan, km).M))
    return {"value": max(errs), "t": traj.times[int(np.argmax(errs))]}


def test_coarse_blowup_fit_meets_the_law(tmp_path):
    # [PAPER] bug fix: the coarse pseudo-conformal run stops at t = 0.22,
    # far from T* = 1; a golden-section search of the log-log fit of H - E_0
    # gave T* = 0.660 and p = 1.227 there and failed both checks, while the
    # line through sqrt(Gamma) = sqrt(8 E_0) (T* - t) finds T* = 1
    cfg = parse_config(FAST_GRID + FAST_GS + "scenario = blowup\n"
                       "init.profile = pseudo-conformal\nintegrator.dt = 2e-3\n"
                       "integrator.output_stride = 5\n")
    summary = run_scenario(cfg, str(tmp_path / "blowup"))
    assert abs(summary["fit"]["T_star"] - 1) < 1e-3
    assert abs(summary["fit"]["exponent"] - 2) < 0.01
    assert summary["checks"]["exponent_near_2"] and summary["checks"]["gamma_parabola"]


def test_exact_error_leaves_out_samples_at_T_star(tmp_path):
    # [TRIVIAL] with no resolution stop the coarse run reaches t_end = T* = 1,
    # where the exact solution is not defined: that sample is left out of
    # max_exact_error instead of failing the run
    cfg = parse_config(FAST_GRID + FAST_GS + "scenario = blowup\n"
                       "init.profile = pseudo-conformal\nintegrator.dt = 2e-3\n"
                       "integrator.output_stride = 5\nintegrator.min_scale_cells = 0.01\n")
    summary = run_scenario(cfg, str(tmp_path / "blowup"))
    assert "error" not in summary
    assert summary["stop_time"] == 1.0
    assert summary["diagnostics"]["max_exact_error"]["t"] < 1.0


@pytest.mark.parametrize("scenario,h_bound", [("blowup", 3.0), ("concentrate", None)])
def test_blowup_diagnostics(tmp_path, scenario, h_bound):
    # [DERIVED] why a blow-up run stopped: 1/sqrt(H) in cells, the value that
    # triggered the stop, is the last sample's; min_scale_cells = 1/(h sqrt(X))
    # stops at the first sample whose H exceeds X (at t = 0.3 for X = 3); the
    # coarse grid lets mass reach the outer cells, and the flagged samples
    # are counted; the concentrate summary's last-sample windows are the
    # conc@ cells of the CSV's last row
    h = 10.0 / 64
    cells = "" if h_bound is None else \
        f"integrator.min_scale_cells = {1 / (h * math.sqrt(h_bound))!r}\n"
    cfg = parse_config(FAST_GRID + FAST_GS + f"scenario = {scenario}\n"
                       "init.profile = pseudo-conformal\nintegrator.dt = 2e-3\n"
                       "integrator.output_stride = 5\nconcentrate.lambdas = 0.5,1.0,3.0\n"
                       + cells)
    out = str(tmp_path / scenario)
    summary = run_scenario(cfg, out)
    assert summary["stop_reason"] == "blowup-resolved-limit"
    diag, H = _check_diagnostics(out, exact=True)
    assert diag["max_exact_error"] == pytest.approx(_max_exact_error(cfg), rel=1e-12)
    assert diag["stop_value"] == pytest.approx(1 / math.sqrt(H[-1]) / h, rel=1e-15)
    assert diag["stop_value"] < cfg["integrator.min_scale_cells"]
    if h_bound is not None:
        assert H[-1] > h_bound >= H[-2] and summary["stop_time"] == 0.3
    else:
        with open(os.path.join(out, "trajectory.csv")) as fh:
            header, *_, last = (line.split(",") for line in fh.read().splitlines())
        assert summary["concentration_last_sample"] == {
            label[len("conc@"):]: float(cell) for label, cell in zip(header, last)
            if label.startswith("conc@")}
        assert list(summary["concentration_last_sample"]) == ["0.5", "1.0", "3.0"]
    assert diag["boundary_flagged_samples"] > 0


def test_determinism_bit_identical(tmp_path):
    # [PAPER] identical config + seed -> the same files, bit-identical but
    # for the output path, from an evolve and a ground-state run
    texts = {"evolve": FAST_GRID + "scenario = evolve\ninit.amplitude = 0.4\n"
                       "integrator.dt = 1e-3\nintegrator.t_end = 0.02\nseed = 3\n",
             "ground-state": FAST_GRID + "ground_state.residual_tol = 1e-2\nseed = 3\n"}
    written = {"evolve": "trajectory.csv", "ground-state": "ground_state.txt"}
    for scenario, text in texts.items():
        blobs = []
        for tag in ("r1", "r2"):
            out = str(tmp_path / scenario / tag)
            run_scenario(parse_config(text, [f"output.dir = {out}"]), out)
            files = {}
            for name in sorted(set(os.listdir(out)) - {"traceback.txt"}):
                with open(os.path.join(out, name), "rb") as fh:
                    files[name] = fh.read().replace(out.encode(), b"X")
            blobs.append(files)
        assert set(blobs[0]) == {"summary.json", written[scenario]}
        assert blobs[0] == blobs[1], scenario


def test_error_captured_in_summary(tmp_path):
    # [TRIVIAL] a failure only the run can find (a solve asked for a residual
    # below its floor) lands in summary.json with pass = false, its traceback
    # beside it, and exit 1
    out = str(tmp_path / "bad")
    assert main(["ground-state", "--out", out, "--override", "grid.n=64",
                 "--override", "ground_state.residual_tol=1e-15"]) == 1
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["pass"] is False
    assert summary["error"]["type"] == "GroundStateError"
    assert os.path.exists(os.path.join(out, "traceback.txt"))


@pytest.mark.parametrize("scenario,grid,content,named", [
    # a field saved on another grid, for a blowup run at n = 128
    ("blowup", "grid.n=128", b"3 -0.1 64 12.0 1.0 0.0\n" + b"0.1 1.0\n" * 64,
     "grid.n = 64 does not match config grid.n = 128"),
    ("evolve", "grid.r_max=12.0", b"3 -0.1 256 10.0 1.0 0.0\n" + b"0.1 1.0\n" * 256,
     "grid.r_max = 10.0 does not match config grid.r_max = 12.0"),
    ("evolve", "grid.n=64", b"\xff\xfe 3 -0.1 64\n", "cannot read: 'utf-8' codec"),
    ("evolve", "grid.n=64", b"3 -0.1 64 12.0 1.0 0.0\n0.1 1.0\n",
     "header n = 64 but 1 data rows"),
    ("evolve", "grid.n=64", b"3 -0.1 64\n", "is not the six numbers"),
    ("evolve", "grid.n=64", b"", "no header line"),
    ("evolve", "grid.n=64", b"3 -0.1 64 12.0 1.0 0.0\n" + b"0.1 1.0\n" * 63 + b"6.0 nan\n",
     "data row 64 '6.0 nan' is not finite"),
], ids=["grid-n", "grid-r_max", "not-utf-8", "row-count", "header", "empty", "non-finite"])
def test_field_file_fails_at_parse_time(tmp_path, capsys, scenario, grid, content, named):
    # [TRIVIAL] a field file that cannot be read, is malformed, holds a
    # non-finite sample or does not match the config's grid exits 2 before
    # anything is built, under key init.file and naming the file
    field = tmp_path / "field.txt"
    field.write_bytes(content)
    out = tmp_path / "out"
    assert main([scenario, "--out", str(out), "--override", grid,
                 "--override", "init.profile=file", "--override", f"init.file={field}"]) == 2
    err = capsys.readouterr().err
    assert f"key init.file: field file {str(field)!r}: " in err and named in err, err
    assert not out.exists()


def test_failed_summary_is_the_same_from_two_checkouts(tmp_path):
    # [TRIVIAL] a failing run's summary.json is bit-identical from two copies
    # of the package: it names the package frames without paths or line
    # numbers, and the full traceback goes to traceback.txt beside it
    src = os.path.dirname(os.path.abspath(hartreelab.__file__))
    args = ["ground-state", "--out", "out", "--override", "grid.n=64",
            "--override", "ground_state.residual_tol=1e-15"]
    outs = []
    for tag in ("a", "b"):
        root = tmp_path / tag
        shutil.copytree(src, root / "src" / "hartreelab",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run([sys.executable, "-m", "hartreelab.cli"] + args, cwd=root,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(root / "src")})
        assert done.returncode == 1, done.stderr
        outs.append(root / "out")
    blobs = [(out / "summary.json").read_bytes() for out in outs]
    assert blobs[0] == blobs[1]
    error = json.loads(blobs[0])["error"]
    assert error["type"] == "GroundStateError"
    assert error["frames"][0] == "hartreelab/cli.py:run_scenario"
    assert error["frames"][-1] == "hartreelab/ground_state.py:solve_ground_state"
    for tag, out in zip(("a", "b"), outs):
        assert str(tmp_path / tag / "src" / "hartreelab" / "ground_state.py") in \
            (out / "traceback.txt").read_text()


def test_main_exit_codes(tmp_path, capsys):
    # [TRIVIAL] 0 on pass, 2 on config error: a bad value, removed keys
    # (grid.stretch, the descent's ground_state.*, integrator.h_threshold and
    # ground_state.newton_iters), each named by its key, a negative seed, an
    # end time that is not a whole number of steps, a
    # non-finite radius, bad solver options, a concentration radius that is
    # not positive and finite, a blow-up run without pseudo-conformal data,
    # too few grid nodes, an unknown profile or scenario, a missing profile
    # file or a directory in its place, no verify fields, a sweep of sweeps, zero sweep workers, a bad
    # profile parameter of any profile, a config whose scenario is not the
    # subcommand, a config file that cannot be read
    out = str(tmp_path / "cli")
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("scenario = ground-state\n" + GS_GRID + FAST_GS)
    assert main(["ground-state", "--config", str(cfg_path), "--out", out]) == 0
    line = capsys.readouterr().out.strip()
    assert json.loads(line)["pass"] is True
    assert main(["evolve", "--override", "model.a=-9"]) == 2
    assert "model.a" in capsys.readouterr().err
    for key in ("grid.stretch", "ground_state.step0", "ground_state.max_iter",
                "ground_state.descent_tol", "integrator.h_threshold",
                "ground_state.newton_iters", "ground_state.guess"):
        assert main(["ground-state", "--out", out, "--override", f"{key}=1"]) == 2, key
        assert key in capsys.readouterr().err, key
    assert main(["evolve", "--override", "integrator.dt=3e-3",
                 "--override", "integrator.t_end=0.01"]) == 2
    assert "key integrator.dt: t_end = 0.01 is not a whole number" in capsys.readouterr().err
    # each integrator field's error names that field's key
    for key, bad in (("integrator.output_stride", "0"), ("integrator.scheme", "euler"),
                     ("integrator.min_scale_cells", "0"),
                     ("integrator.min_scale_cells", "nan"), ("integrator.dt", "0"),
                     ("integrator.t_end", "-1")):
        assert main(["evolve", "--out", out, "--override", f"{key}={bad}"]) == 2, key
        assert capsys.readouterr().err.startswith(f"config error: key {key}: "), key
    # so does each init.* field's, whatever the profile
    for key, bad in (("sigma", "0"), ("sigma", "nan"), ("amplitude", "inf"),
                     ("theta", "nan"), ("mu", "0"), ("nu_s", "-1"), ("T_star", "0"),
                     ("t0", "-0.1"), ("t0", "1.5"), ("s0", "-1"), ("width", "0")):
        for scenario in ("evolve", "blowup"):
            argv = [scenario, "--out", out, "--override", f"init.{key}={bad}"]
            argv += ["--override", "init.profile=pseudo-conformal"] * (scenario == "blowup")
            assert main(argv) == 2, (scenario, key)
            err = capsys.readouterr().err
            assert err.startswith(f"config error: key init.{key}: ") \
                and err.count("\n") == 1, err
    assert main(["verify", "--out", out, "--seed", "-1"]) == 2
    assert "key seed: must be >= 0" in capsys.readouterr().err
    # each is caught while parsing, before any build, solve or evolution
    for scenario, override, named in (
            ("evolve", "grid.r_max=nan", "grid.r_max"),
            ("evolve", "grid.r_max=inf", "grid.r_max"),
            ("ground-state", "ground_state.residual_tol=-1",
             "key ground_state.residual_tol:"),
            ("ground-state", "ground_state.residual_tol=inf",
             "key ground_state.residual_tol:"),
            ("evolve", "model.d=x", "model.d"),
            ("evolve", "model.d=2", "key model.d: d must be >= 3"),
            ("evolve", "concentrate.lambdas=nan", "concentrate.lambdas"),
            ("concentrate", "concentrate.lambdas=1.0,0", "concentrate.lambdas"),
            ("evolve", "concentrate.lambdas=-1,inf", "concentrate.lambdas"),
            ("concentrate", "concentrate.lambdas=1.0,1", "concentrate.lambdas"),
            ("concentrate", "grid.n=32", "init.profile"),
            ("evolve", "grid.n=8", "key grid.n:"),
            ("evolve", "init.profile=vortex", "key init.profile:"),
            ("evolve", "init.profile=file", "key init.file:"),
            ("verify", "verify.fields=0", "key verify.fields:"),
            ("sweep", "sweep.scenario=sweep", "key sweep.scenario:"),
            ("evolve", "scenario=bogus", "key scenario:")):
        assert main([scenario, "--out", out, "--override", override]) == 2, override
        assert named in capsys.readouterr().err, override
    assert main(["evolve", "--out", out, "--override", "init.profile=file",
                 "--override", "init.file=."]) == 2
    assert "key init.file: '.' is not a regular file" in capsys.readouterr().err
    # a config file or an override that sets another scenario than the
    # subcommand's is named with both; the same one is accepted (above)
    with pytest.raises(ConfigError, match="key scenario:"):
        parse_config("scenario = bogus")
    cfg_path.write_text("scenario = blowup\n")
    for argv in (["--config", str(cfg_path)], ["--override", "scenario=blowup"]):
        assert main(["evolve", "--out", out] + argv) == 2, argv
        assert capsys.readouterr().err == ("config error: key scenario: the config "
                                           "sets 'blowup', the subcommand is 'evolve'\n")
    # an unreadable file is a config error, not a traceback
    cfg_path.write_bytes(b"grid.n = 64  # \xff\n")
    for path in (cfg_path, tmp_path / "missing.cfg"):
        assert main(["evolve", "--out", out, "--config", str(path)]) == 2, path
        assert capsys.readouterr().err.startswith(f"config error: cannot read {str(path)!r}: ")
    assert main(["sweep", "--out", out, "--override", "sweep.key=model.a",
                 "--override", "sweep.values=-0.1", "--override", "sweep.workers=0"]) == 2
    assert "sweep.workers" in capsys.readouterr().err
    # a sweep over its own scenario, output location or sweep.* keys would
    # re-run itself; the parse_config guard keeps main from ever starting one
    for key, vals in (("scenario", "sweep"), ("output.dir", "a,b"),
                      ("sweep.values", "x"), ("sweep.scenario", "sweep")):
        overrides = [f"sweep.key={key}", f"sweep.values={vals}"]
        with pytest.raises(ConfigError):
            parse_config("scenario = sweep", overrides)
        args = [x for o in overrides for x in ("--override", o)]
        assert main(["sweep", "--out", out] + args) == 2, key
        assert "sweep.key" in capsys.readouterr().err, key


def test_unusable_output_dir_is_a_config_error(tmp_path, capsys):
    # [TRIVIAL] an output.dir that cannot be made a directory, a regular file
    # or a path below one, exits 2 naming the path, not with a traceback
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "sub"):
        assert main(["ground-state", "--out", str(out), "--override", "grid.n=64"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: key output.dir: ") and str(out) in err, err
    assert taken.read_text() == ""
    # a library caller still gets the OSError
    with pytest.raises(FileExistsError):
        run_scenario(parse_config("", [f"output.dir = {taken}"]))


def test_sweep_scenario(tmp_path):
    # [DERIVED] two-point sweep over the gaussian amplitude, parallel workers
    cfg = parse_config(FAST_GRID + "scenario = sweep\nsweep.scenario = evolve\n"
                       "sweep.key = init.amplitude\nsweep.values = 0.3,0.4\n"
                       "sweep.workers = 2\ninit.amplitude = 0.3\n"
                       "integrator.dt = 1e-3\nintegrator.t_end = 0.02\n")
    out = str(tmp_path / "sw")
    summary = run_scenario(cfg, out)
    assert summary["pass"], summary
    assert len(summary["runs"]) == 2
    for idx in (0, 1):
        assert os.path.exists(os.path.join(out, f"sweep-{idx:03d}", "summary.json"))


class FakeBlas:
    """One BLAS library's thread count, with every count set on it."""

    def __init__(self, threads):
        self.threads, self.sets = threads, []

    def get(self):
        return self.threads

    def set(self, threads):
        self.sets.append(threads)
        self.threads = threads


def _fake_sweep(monkeypatch, tmp_path, threads, workers, values, fail=False):
    """A sweep on one fake BLAS library of `threads` threads whose sub-runs
    only note the thread count they ran at, and raise if `fail`."""
    blas, seen = FakeBlas(threads), []
    monkeypatch.setattr(cli, "_blas_controls", lambda: [(blas.get, blas.set)])

    def sub_run(cfg, out_dir=None):
        seen.append(blas.threads)
        if fail:
            raise RuntimeError("sub-run failed")
        return {"pass": True}

    monkeypatch.setattr(cli, "run_scenario", sub_run)
    cfg = parse_config("scenario = sweep\nsweep.key = model.a\n"
                       f"sweep.values = {values}\nsweep.workers = {workers}\n")
    summary = run_scenario(cfg, str(tmp_path / "sw"))
    return blas, seen, summary


@pytest.mark.parametrize("threads, workers, values, share", [
    (2, 2, "-0.1,-0.2", 1),
    (2, 4, "-0.1,-0.2,-0.15,-0.05", 1),
    (8, 2, "-0.1,-0.2", 4),
    (8, 4, "-0.1,-0.2", 4),         # two values run on two workers, not four
])
def test_sweep_shares_blas_threads_among_workers(monkeypatch, tmp_path, threads,
                                                 workers, values, share):
    # [TRIVIAL] W = min(sweep.workers, values) concurrent sub-runs each run
    # at max(1, T // W) threads; T is back once the sweep ends
    blas, seen, summary = _fake_sweep(monkeypatch, tmp_path, threads, workers, values)
    assert summary["pass"] and summary["blas_threads"] == share
    assert seen == [share] * len(values.split(","))
    assert blas.sets == [share, threads] and blas.threads == threads


@pytest.mark.parametrize("workers, values", [(1, "-0.1,-0.2"), (4, "-0.1")])
def test_serial_sweep_keeps_blas_threads(monkeypatch, tmp_path, workers, values):
    # [TRIVIAL] one sub-run at a time never sets the thread count
    blas, seen, summary = _fake_sweep(monkeypatch, tmp_path, 2, workers, values)
    assert summary["pass"] and summary["blas_threads"] is None
    assert blas.sets == [] and seen == [2] * len(values.split(","))


def test_sweep_without_blas_control_records_none(monkeypatch, tmp_path):
    # [TRIVIAL] no OpenBLAS library found: the sweep runs as it is
    monkeypatch.setattr(cli, "_blas_controls", lambda: [])
    monkeypatch.setattr(cli, "run_scenario", lambda cfg, out_dir=None: {"pass": True})
    cfg = parse_config("scenario = sweep\nsweep.key = model.a\n"
                       "sweep.values = -0.1,-0.2\nsweep.workers = 2\n")
    summary = run_scenario(cfg, str(tmp_path / "sw"))
    assert summary["pass"] and summary["blas_threads"] is None


@pytest.mark.parametrize("fault", ["maps unreadable", "library unloadable"])
def test_blas_controls_fall_back_to_none(monkeypatch, fault):
    # [TRIVIAL] with /proc/self/maps unreadable, or a mapped OpenBLAS that
    # ctypes cannot load, no control is found: a 2-worker block yields None
    # and leaves every library's thread count as it was
    real = cli._blas_controls()
    before = [get() for get, _ in real]
    loads = []

    def fake_open(path, *args, **kwargs):
        if fault == "maps unreadable":
            raise OSError(f"cannot open {path}")
        return io.StringIO("7f00-7f01 r-xp 00000000 00:00 0 /lib/libopenblas.so.0\n")

    def fake_cdll(path, *args, **kwargs):
        loads.append(path)
        raise OSError(f"cannot load {path}")

    monkeypatch.setattr(cli, "open", fake_open, raising=False)
    monkeypatch.setattr(cli.ctypes, "CDLL", fake_cdll)
    assert cli._blas_controls() == []
    assert loads == ([] if fault == "maps unreadable" else ["/lib/libopenblas.so.0"])
    with cli._blas_threads_per_worker(2) as threads:
        assert threads is None
        assert [get() for get, _ in real] == before
    assert [get() for get, _ in real] == before


def test_sweep_restores_blas_threads_when_a_sub_run_raises(monkeypatch, tmp_path):
    # [TRIVIAL] an exception out of the pool still restores T
    blas, seen, summary = _fake_sweep(monkeypatch, tmp_path, 2, 2, "-0.1,-0.2",
                                      fail=True)
    assert summary["pass"] is False and summary["error"]["type"] == "RuntimeError"
    assert seen and set(seen) == {1}
    assert blas.sets == [1, 2] and blas.threads == 2


def test_parallel_ground_state_sweep_is_reproducible(tmp_path):
    # [DERIVED] a 2-worker sweep writes the same ground states on every run,
    # and leaves each loaded OpenBLAS library at its thread count
    controls = cli._blas_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control found in this process")
    before = [get() for get, _ in controls]
    text = (GS_GRID + FAST_GS + "scenario = sweep\nsweep.key = model.a\n"
            "sweep.values = -0.1,-0.2\nsweep.workers = 2\n")
    fields = []
    for rep in (0, 1):
        out = tmp_path / f"sw{rep}"
        summary = run_scenario(parse_config(text), str(out))
        assert summary["pass"], summary
        assert summary["blas_threads"] == max(max(1, t // 2) for t in before)
        assert [get() for get, _ in controls] == before
        fields.append([(out / f"sweep-{idx:03d}" / "ground_state.txt").read_bytes()
                       for idx in (0, 1)])
    assert fields[0] == fields[1]


def test_sweep_values_checked_at_parse_time(tmp_path, capsys):
    # [TRIVIAL] every sub-run's config is parsed with the base config, so a
    # bad swept value exits 2, named with its index, before any sub-run starts
    text = "scenario = sweep\nsweep.key = model.a\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text + "sweep.values = -0.1,abc,-9\n")
    errs = exc.value.errors
    assert len(errs) == 2
    assert "value 1 ('abc')" in errs[0] and "model.a" in errs[0]
    assert "value 2 ('-9')" in errs[1] and "-0.25" in errs[1]
    # cross-key checks of the sub-run's scenario apply too
    with pytest.raises(ConfigError) as exc:
        parse_config("scenario = sweep\nsweep.scenario = blowup\n"
                     "sweep.key = init.profile\nsweep.values = pseudo-conformal,gaussian\n")
    assert len(exc.value.errors) == 1 and "value 1 ('gaussian')" in exc.value.errors[0]
    parse_config(text + "sweep.values = -0.1,-0.2\n")
    out = tmp_path / "sw"
    assert main(["sweep", "--out", str(out), "--override", "sweep.key=model.a",
                 "--override", "sweep.values=-0.1,abc"]) == 2
    assert "value 1 ('abc')" in capsys.readouterr().err
    assert not out.exists()
    # so does a profile parameter's, whatever the sub-run's profile
    assert main(["sweep", "--out", str(out), "--override", "sweep.scenario=evolve",
                 "--override", "sweep.key=init.sigma", "--override", "sweep.values=1.0,-1.0"]) == 2
    assert capsys.readouterr().err == ("config error: key sweep.values: value 1 ('-1.0'): key "
                                       "init.sigma: sigma must be positive and finite, got -1.0\n")
    assert not out.exists()


def test_sweep_values_keep_hash_signs(tmp_path):
    # [TRIVIAL] a sub-run's config is built from override items, which are
    # not cut at '#' as config text lines are: a swept value with '#' in it
    # is checked whole, and a base value with '#' reaches every sub-run
    with pytest.raises(ConfigError) as exc:
        parse_config("scenario = sweep", ["sweep.key = init.amplitude",
                                          "sweep.values = 0.3,0.4#junk"])
    assert exc.value.errors == ["key sweep.values: value 1 ('0.4#junk'): key "
                                "init.amplitude: cannot parse '0.4#junk' as float"]
    field = tmp_path / "a#b.txt"
    field.write_bytes(b"3 -0.1 64 12.0 1.0 0.0\n" + b"0.1 0.01\n" * 64)
    cfg = parse_config(GS_GRID + "scenario = sweep\nsweep.scenario = evolve\n"
                       "sweep.key = integrator.t_end\nsweep.values = 0.002,0.004\n"
                       "init.profile = file\n", [f"init.file = {field}"])
    out = tmp_path / "sw"
    run_scenario(cfg, str(out))
    for idx in range(2):
        sub = json.loads((out / f"sweep-{idx:03d}" / "summary.json").read_text())
        assert sub["config"]["init.file"] == str(field) and "error" not in sub, sub


def test_sweep_config_validation():
    # [TRIVIAL]
    with pytest.raises(ConfigError) as exc:
        parse_config("scenario = sweep\nsweep.key = nope\n")
    errs = "\n".join(exc.value.errors)
    assert "sweep.key" in errs and "sweep.values" in errs


def test_file_profile_round_trip(tmp_path):
    # [DERIVED] ground-state output feeds back in as init.profile = file
    out_gs = str(tmp_path / "gs")
    cfg = parse_config(GS_GRID + FAST_GS)
    assert run_scenario(cfg, out_gs)["pass"]
    field = os.path.join(out_gs, "ground_state.txt")
    cfg2 = parse_config(GS_GRID + "scenario = evolve\ninit.profile = file\n"
                        f"init.file = {field}\nintegrator.dt = 1e-3\n"
                        "integrator.t_end = 0.02\n")
    out_ev = str(tmp_path / "ev")
    summary = run_scenario(cfg2, out_ev)
    assert summary["pass"], summary
    assert summary["mass_drift"] < 1e-10
    # file data has no exact solution to be measured against
    cfg3 = parse_config(GS_GRID + "scenario = blowup\ninit.profile = file\n"
                        f"init.file = {field}\nintegrator.dt = 1e-3\n"
                        "integrator.t_end = 0.02\n")
    summary = run_scenario(cfg3, str(tmp_path / "bu"))
    assert summary["diagnostics"]["max_exact_error"] is None


def _field_file_errors(text: str) -> list:
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    return exc.value.errors


def test_file_profile_model_mismatch(tmp_path):
    # [TRIVIAL] a field file saved for another coupling a, or also another
    # dimension, fails parse_config with one line per mismatched key
    out_gs = str(tmp_path / "gs")
    assert run_scenario(parse_config(GS_GRID + FAST_GS), out_gs)["pass"]
    field = os.path.join(out_gs, "ground_state.txt")
    text = (GS_GRID + "scenario = evolve\ninit.profile = file\n"
            f"init.file = {field}\nmodel.a = -0.2\n"
            "integrator.dt = 1e-3\nintegrator.t_end = 0.02\n")
    (err,) = _field_file_errors(text)
    assert err == (f"key init.file: field file {field!r}: model.a = -0.1 "
                   f"does not match config model.a = -0.2")
    errs = _field_file_errors(text + "model.d = 4\n")
    assert [e.split(": ")[2].split(" =")[0] for e in errs] == ["model.d", "model.a"]


def test_ground_state_failure_keeps_trace(tmp_path):
    # [TRIVIAL] a failed solve keeps the relative |F| of each iterate in
    # summary.json
    cfg = parse_config(FAST_GRID + "ground_state.residual_tol = 1e-15\n")
    out = str(tmp_path / "gs")
    summary = run_scenario(cfg, out)
    assert summary["pass"] is False
    assert summary["error"]["type"] == "GroundStateError"
    with open(os.path.join(out, "summary.json")) as fh:
        residuals = json.load(fh)["error"]["residuals"]
    assert residuals and all(isinstance(r, float) for r in residuals)
    assert f"after {len(residuals)} iterations" in summary["error"]["message"]


def test_import_loads_no_scipy():
    # [TRIVIAL] importing the package and its CLI loads no scipy module: the
    # package runs on numpy alone (scipy.special alone maps about 21 MiB and
    # a second OpenBLAS)
    src = os.path.dirname(os.path.dirname(os.path.abspath(hartreelab.__file__)))
    code = ("import sys, hartreelab, hartreelab.cli; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout.split()
    assert out == []
