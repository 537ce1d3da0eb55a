import json
import os

import numpy as np
import pytest

from hartreelab.cli import (ConfigError, SCHEMA, config_hash, main,
                            parse_config, run_scenario)

FAST_GRID = "grid.n = 64\ngrid.r_max = 10.0\n"
FAST_GS = ("ground_state.residual_tol = 1e-2\n"
           "ground_state.descent_tol = 1e-3\n")


def test_parse_defaults():
    # [TRIVIAL] empty config resolves every key to its schema default
    cfg = parse_config("")
    assert cfg["scenario"] == "ground-state"
    assert cfg["model.d"] == 3 and cfg["model.a"] == -0.1
    assert cfg["grid.n"] == 256
    assert set(cfg.values) == set(SCHEMA)


def test_parse_values_comments_overrides():
    # [TRIVIAL] comments, whitespace, and override precedence
    text = "model.d = 4   # dimension\n\nmodel.a = -0.5\ngrid.n = 128\n"
    cfg = parse_config(text, overrides=["grid.n = 96"])
    assert cfg["model.d"] == 4
    assert cfg["model.a"] == -0.5
    assert cfg["grid.n"] == 96          # override wins


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


def test_config_hash_ignores_output_dir():
    # [TRIVIAL] hash is stable under relocation, sensitive to physics keys
    c1 = parse_config("output.dir = a")
    c2 = parse_config("output.dir = b")
    c3 = parse_config("model.a = -0.2")
    assert config_hash(c1) == config_hash(c2)
    assert config_hash(c1) != config_hash(c3)


def test_ground_state_scenario_artifacts(tmp_path):
    # [DERIVED] summary.json + ground_state.txt written; checks pass at n=64
    cfg = parse_config(FAST_GRID + FAST_GS + "scenario = ground-state")
    out = str(tmp_path / "gs")
    summary = run_scenario(cfg, out)
    assert summary["pass"], summary
    assert os.path.exists(os.path.join(out, "ground_state.txt"))
    with open(os.path.join(out, "summary.json")) as fh:
        on_disk = json.load(fh)
    assert on_disk["m_gs"] == summary["m_gs"]
    assert on_disk["config_hash"] == config_hash(cfg)


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


def test_determinism_bit_identical(tmp_path):
    # [PAPER] identical config + seed -> bit-identical summary and CSV
    text = (FAST_GRID + "scenario = evolve\ninit.amplitude = 0.4\n"
            "integrator.dt = 1e-3\nintegrator.t_end = 0.02\nseed = 3\n")
    outs = []
    for tag in ("r1", "r2"):
        out = str(tmp_path / tag)
        run_scenario(parse_config(text, [f"output.dir = {out}"]), out)
        outs.append(out)
    for name in ("summary.json", "trajectory.csv"):
        with open(os.path.join(outs[0], name), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(outs[1], name), "rb") as fh:
            b2 = fh.read()
        # the output path itself is the only allowed difference
        assert b1.replace(outs[0].encode(), b"X") == \
            b2.replace(outs[1].encode(), b"X")


def test_error_captured_in_summary(tmp_path):
    # [TRIVIAL] scenario failure lands in summary.json, pass = false
    cfg = parse_config(FAST_GRID + "scenario = blowup\n"   # wrong profile
                       "init.profile = gaussian\nintegrator.t_end = 0.01\n")
    out = str(tmp_path / "bad")
    summary = run_scenario(cfg, out)
    assert summary["pass"] is False
    assert summary["error"]["type"] == "ValueError"
    assert os.path.exists(os.path.join(out, "summary.json"))


def test_main_exit_codes(tmp_path, capsys):
    # [TRIVIAL] 0 on pass, 2 on config error: a bad value, a removed key
    # (grid.stretch), an end time that is not a whole number of steps, a
    # non-finite radius, bad solver options, zero sweep workers
    out = str(tmp_path / "cli")
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(FAST_GRID + FAST_GS)
    assert main(["ground-state", "--config", str(cfg_path), "--out", out]) == 0
    line = capsys.readouterr().out.strip()
    assert json.loads(line)["pass"] is True
    assert main(["evolve", "--override", "model.a=-9"]) == 2
    assert "model.a" in capsys.readouterr().err
    assert main(["evolve", "--override", "grid.stretch=1.0"]) == 2
    assert "grid.stretch" in capsys.readouterr().err
    assert main(["evolve", "--override", "integrator.dt=3e-3",
                 "--override", "integrator.t_end=0.01"]) == 2
    assert "integrator.dt" in capsys.readouterr().err
    # each is caught while parsing, before any build, solve or evolution
    for scenario, override, named in (
            ("evolve", "grid.r_max=nan", "grid.r_max"),
            ("evolve", "grid.r_max=inf", "grid.r_max"),
            ("ground-state", "ground_state.residual_tol=-1", "residual_tol"),
            ("ground-state", "ground_state.max_iter=-1", "max_iter"),
            ("ground-state", "ground_state.newton_iters=0", "newton_iters"),
            ("ground-state", "ground_state.guess=bogus", "bogus"),
            ("evolve", "model.d=x", "model.d")):
        assert main([scenario, "--out", out, "--override", override]) == 2, override
        assert named in capsys.readouterr().err, override
    assert main(["sweep", "--out", out, "--override", "sweep.key=model.a",
                 "--override", "sweep.values=-0.1", "--override", "sweep.workers=0"]) == 2
    assert "sweep.workers" in capsys.readouterr().err


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


def test_sweep_config_validation():
    # [TRIVIAL]
    with pytest.raises(ConfigError) as exc:
        parse_config("scenario = sweep\nsweep.key = nope\n")
    errs = "\n".join(exc.value.errors)
    assert "sweep.key" in errs and "sweep.values" in errs


def test_file_profile_round_trip(tmp_path):
    # [DERIVED] ground-state output feeds back in as init.profile = file
    out_gs = str(tmp_path / "gs")
    cfg = parse_config(FAST_GRID + FAST_GS)
    assert run_scenario(cfg, out_gs)["pass"]
    field = os.path.join(out_gs, "ground_state.txt")
    cfg2 = parse_config(FAST_GRID + "scenario = evolve\ninit.profile = file\n"
                        f"init.file = {field}\nintegrator.dt = 1e-3\n"
                        "integrator.t_end = 0.02\n")
    out_ev = str(tmp_path / "ev")
    summary = run_scenario(cfg2, out_ev)
    assert summary["pass"], summary
    assert summary["mass_drift"] < 1e-10


def test_file_profile_model_mismatch(tmp_path):
    # [TRIVIAL] a field file saved for another coupling a is rejected
    out_gs = str(tmp_path / "gs")
    assert run_scenario(parse_config(FAST_GRID + FAST_GS), out_gs)["pass"]
    field = os.path.join(out_gs, "ground_state.txt")
    cfg = parse_config(FAST_GRID + "scenario = evolve\ninit.profile = file\n"
                       f"init.file = {field}\nmodel.a = -0.2\n"
                       "integrator.dt = 1e-3\nintegrator.t_end = 0.02\n")
    summary = run_scenario(cfg, str(tmp_path / "ev"))
    assert summary["pass"] is False
    assert summary["error"]["type"] == "ValueError"
    assert "model.a" in summary["error"]["message"]


def test_ground_state_failure_keeps_trace(tmp_path):
    # [TRIVIAL] a failed solve keeps its (iteration, J) trace in summary.json
    cfg = parse_config(FAST_GRID + "ground_state.residual_tol = 1e-15\n"
                       "ground_state.newton_iters = 1\nground_state.max_iter = 3\n")
    out = str(tmp_path / "gs")
    summary = run_scenario(cfg, out)
    assert summary["pass"] is False
    assert summary["error"]["type"] == "GroundStateError"
    with open(os.path.join(out, "summary.json")) as fh:
        trace = json.load(fh)["error"]["trace"]
    assert trace and all(len(entry) == 2 for entry in trace)
