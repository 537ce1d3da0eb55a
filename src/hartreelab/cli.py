"""Config-driven batch front door.

Configs are flat UTF-8 ``key = value`` text with dotted keys (``#`` comments
allowed); the full schema with defaults is the SCHEMA table below.  Unknown
keys are rejected and validation reports *all* problems, not just the first.

Subcommands: ground-state | evolve | blowup | verify | concentrate | sweep,
with flags --config PATH, --out DIR, --seed N, --override key=value
(repeatable).  Every run writes a machine-readable ``summary.json`` embedding
the fully resolved config, a short config hash, and the pass/fail of every
invariant checked; the process exit status reflects the overall pass flag.
Trajectory scenarios additionally write ``trajectory.csv`` (columns
t, M, H, E, L_V, Gamma, GammaPrime, conc@lam..., stop_reason; RFC-style,
header row, '.' decimal) with the run metadata in the JSON sidecar.

Identical config + seed produce bit-identical CSV/JSON outputs: floats are
serialized with shortest-roundtrip repr and JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .evolution import (FitRejected, IntegratorConfig, concentration, evolve,
                        fit_blowup, rotated_energy_check)
from .functionals import functionals, hardy_ratio, rearrange_decreasing
from .ground_state import (GroundStateError, GroundStateOptions, gn_audit,
                           load_ground_state, solve_ground_state,
                           save_ground_state)
from .grid import build_grid
from .hartree import build_kernel, lv_value
from .params import make_params
from .profiles import PROFILE_NAMES, make_initial_data
from .transform import build_plan, radial_derivative

SCENARIOS = ("ground-state", "evolve", "blowup", "verify", "concentrate", "sweep")


def _float_list(text: str) -> list:
    return [float(x) for x in text.split(",") if x.strip()]


def _str_list(text: str) -> list:
    return [x.strip() for x in text.split(",") if x.strip()]


# key -> (parser, default); validation beyond parsing happens in parse_config
SCHEMA = {
    "scenario": (str, "ground-state"),
    "model.d": (int, 3),
    "model.a": (float, -0.1),
    "grid.n": (int, 256),
    "grid.r_max": (float, 12.0),
    "integrator.dt": (float, 1e-3),
    "integrator.t_end": (float, 1.0),
    "integrator.scheme": (str, "strang-split"),
    "integrator.output_stride": (int, 10),
    "integrator.h_threshold": (float, math.inf),
    "integrator.min_scale_cells": (float, 4.0),
    "ground_state.step0": (float, 1e-2),
    "ground_state.max_iter": (int, 500),
    "ground_state.descent_tol": (float, 1e-4),
    "ground_state.newton_iters": (int, 10),
    "ground_state.residual_tol": (float, 1e-5),
    "ground_state.guess": (str, "gaussian"),
    "init.profile": (str, "gaussian"),
    "init.file": (str, ""),
    "init.sigma": (float, 1.0),
    "init.amplitude": (float, 1.0),
    "init.mu": (float, 1.0),
    "init.nu_s": (float, 1.0),
    "init.T_star": (float, 1.0),
    "init.theta": (float, 0.0),
    "init.t0": (float, 0.0),
    "init.s0": (float, 2.0),
    "init.width": (float, 0.5),
    "output.dir": (str, "out"),
    "seed": (int, 0),
    "concentrate.lambdas": (_float_list, [1.0]),
    "verify.fields": (int, 50),
    "sweep.scenario": (str, "ground-state"),
    "sweep.key": (str, ""),
    "sweep.values": (_str_list, []),
    "sweep.workers": (int, 4),
}


class ConfigError(ValueError):
    """Carries the full list of validation problems in .errors."""

    def __init__(self, errors):
        super().__init__("invalid configuration:\n  " + "\n  ".join(errors))
        self.errors = list(errors)


@dataclass
class RunConfig:
    values: dict                 # fully resolved flat key -> typed value
    raw: dict = field(default_factory=dict)  # resolved key -> string form

    def __getitem__(self, key):
        return self.values[key]


def _resolved_raw(values: dict) -> dict:
    out = {}
    for k in sorted(SCHEMA):
        v = values[k]
        if isinstance(v, list):
            out[k] = ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)
        elif isinstance(v, float):
            out[k] = repr(v)
        else:
            out[k] = str(v)
    return out


def config_hash(cfg: RunConfig) -> str:
    """Short hash of the resolved config, excluding the output location."""
    blob = "\n".join(f"{k}={v}" for k, v in sorted(cfg.raw.items())
                     if k != "output.dir")
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def parse_config(text: str, overrides=None) -> RunConfig:
    """Parse and validate; raises ConfigError listing *all* problems."""
    errors = []
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, val = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        pairs[key] = val
    for item in overrides or []:
        if "=" not in item:
            errors.append(f"override {item!r}: expected key=value")
            continue
        key, val = (part.strip() for part in item.split("=", 1))
        if key not in SCHEMA:
            errors.append(f"override: unknown key {key!r}")
            continue
        pairs[key] = val

    values = {}
    for key, (parse, default) in SCHEMA.items():
        if key in pairs:
            try:
                values[key] = parse(pairs[key])
            except (TypeError, ValueError):
                errors.append(f"key {key}: cannot parse {pairs[key]!r} as {parse.__name__}")
        else:
            values[key] = default

    def check(key, builder):
        try:
            builder()
        except KeyError:
            pass            # a value it needs did not parse; reported above
        except (ValueError, TypeError) as exc:
            errors.append(f"key {key}: {exc}")

    if values.get("scenario") not in SCENARIOS:
        errors.append(f"key scenario: must be one of {SCENARIOS}, "
                      f"got {values.get('scenario')!r}")
    check("model.a", lambda: make_params(values["model.d"], values["model.a"]))
    if values.get("grid.n", 16) < 16:
        errors.append(f"key grid.n: must be >= 16, got {values['grid.n']}")
    if not 0 < values.get("grid.r_max", 1.0) < math.inf:
        errors.append(f"key grid.r_max: must be positive and finite, "
                      f"got {values['grid.r_max']}")
    check("integrator.dt", lambda: IntegratorConfig(
        dt=values["integrator.dt"], t_end=values["integrator.t_end"],
        scheme=values["integrator.scheme"],
        output_stride=values["integrator.output_stride"],
        h_threshold=values["integrator.h_threshold"],
        min_scale_cells=values["integrator.min_scale_cells"]))
    check("ground_state", lambda: _gs_options(values))
    if values.get("init.profile") not in PROFILE_NAMES + ("file",):
        errors.append(f"key init.profile: must be one of {PROFILE_NAMES + ('file',)}, "
                      f"got {values.get('init.profile')!r}")
    if values.get("init.profile") == "file" and not os.path.exists(values.get("init.file", "")):
        errors.append(f"key init.file: file {values.get('init.file')!r} does not exist")
    if values.get("verify.fields", 1) < 1:
        errors.append("key verify.fields: must be >= 1")
    if values.get("scenario") == "sweep":
        if values.get("sweep.key") not in SCHEMA:
            errors.append(f"key sweep.key: unknown target key {values.get('sweep.key')!r}")
        if not values.get("sweep.values"):
            errors.append("key sweep.values: sweep requires a non-empty value list")
        if values.get("sweep.scenario") not in SCENARIOS or values.get("sweep.scenario") == "sweep":
            errors.append("key sweep.scenario: must be a non-sweep scenario")
        if values.get("sweep.workers", 1) < 1:
            errors.append(f"key sweep.workers: must be >= 1, got {values['sweep.workers']}")
    if errors:
        raise ConfigError(errors)
    return RunConfig(values=values, raw=_resolved_raw(values))


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))   # float() drops numpy scalar wrappers
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _build(cfg: RunConfig):
    params = make_params(cfg["model.d"], cfg["model.a"])
    grid = build_grid(cfg["model.d"], cfg["grid.n"], cfg["grid.r_max"])
    plan = build_plan(params, grid)
    km = build_kernel(grid, params)
    return params, grid, plan, km


def _gs_options(cfg) -> GroundStateOptions:
    return GroundStateOptions(
        step0=cfg["ground_state.step0"], max_iter=cfg["ground_state.max_iter"],
        descent_tol=cfg["ground_state.descent_tol"],
        newton_iters=cfg["ground_state.newton_iters"],
        residual_tol=cfg["ground_state.residual_tol"],
        guess=cfg["ground_state.guess"])


def _integrator(cfg: RunConfig) -> IntegratorConfig:
    return IntegratorConfig(
        dt=cfg["integrator.dt"], t_end=cfg["integrator.t_end"],
        scheme=cfg["integrator.scheme"],
        output_stride=cfg["integrator.output_stride"],
        h_threshold=cfg["integrator.h_threshold"],
        min_scale_cells=cfg["integrator.min_scale_cells"])


def _initial_data(cfg, params, grid, plan, km):
    """Initial field per config; solves the ground state when the profile
    needs it.  Returns (u0, ground_state_result_or_None)."""
    name = cfg["init.profile"]
    if name == "file":
        meta, r, Q = load_ground_state(cfg["init.file"])
        if meta["n"] != grid.n or abs(meta["r_max"] - grid.r_max) > 1e-12:
            raise ValueError(
                f"field file grid ({meta['n']}, {meta['r_max']}) does not match "
                f"config grid ({grid.n}, {grid.r_max})")
        for key, saved, wanted in (("model.d", meta["d"], params.d),
                                   ("model.a", meta["a"], params.a)):
            if abs(saved - wanted) > 1e-12:
                raise ValueError(f"field file {key} = {saved!r} does not match "
                                 f"config {key} = {wanted!r}")
        return np.asarray(Q, dtype=complex), None
    gs = None
    if name in ("ground-state", "pseudo-conformal"):
        gs = solve_ground_state(params, grid, plan, km, _gs_options(cfg))
        u0 = make_initial_data(name, _profile_opts(cfg), params, grid, plan, gs.Q)
    else:
        u0 = make_initial_data(name, _profile_opts(cfg), params, grid, plan)
    return np.asarray(u0, dtype=complex), gs


def _profile_opts(cfg) -> dict:
    return {"sigma": cfg["init.sigma"], "amplitude": cfg["init.amplitude"],
            "mu": cfg["init.mu"], "nu_s": cfg["init.nu_s"],
            "T_star": cfg["init.T_star"], "theta": cfg["init.theta"],
            "t0": cfg["init.t0"], "s0": cfg["init.s0"],
            "width": cfg["init.width"]}


def _sidecar(cfg, extra=None):
    meta = {"d": cfg["model.d"], "a": cfg["model.a"], "n": cfg["grid.n"],
            "r_max": cfg["grid.r_max"], "dt": cfg["integrator.dt"],
            "scheme": cfg["integrator.scheme"], "config_hash": config_hash(cfg),
            "config": dict(sorted(cfg.raw.items()))}
    meta.update(extra or {})
    return meta


def _export_trajectory(out_dir, cfg, traj, grid, lambdas=None, lam_of_t=None):
    """trajectory.csv + sidecar.  `lambdas` are static window radii; if
    `lam_of_t` is given the windows are lam_i(t) = lambdas[i]*lam_of_t(t)."""
    lambdas = lambdas or []
    labels = [f"conc@{_fmt(lam)}" for lam in lambdas]
    header = ["t", "M", "H", "E", "L_V", "Gamma", "GammaPrime"] + labels + ["stop_reason"]
    rows = []
    nsamp = len(traj.times)
    for i in range(nsamp):
        q = traj.quantities[i]
        row = [traj.times[i], q.M, q.H, q.E, q.L_V, traj.gamma[i], traj.gamma_prime[i]]
        for lam in lambdas:
            eff = lam * lam_of_t(traj.times[i]) if lam_of_t else lam
            row.append(concentration(traj.fields[i], eff, grid)
                       if traj.fields else math.nan)
        row.append(traj.stop_reason if i == nsamp - 1 else "")
        rows.append(row)
    _write_csv(os.path.join(out_dir, "trajectory.csv"), header, rows)
    _write_json(os.path.join(out_dir, "trajectory.json"),
                _sidecar(cfg, {"stop_reason": traj.stop_reason,
                               "stop_time": traj.stop_time, "samples": nsamp}))


def _scenario_ground_state(cfg, out_dir):
    params, grid, plan, km = _build(cfg)
    opts = _gs_options(cfg)
    res = solve_ground_state(params, grid, plan, km, opts)
    q = functionals(res.Q, plan, km)
    tol = opts.residual_tol
    checks = {
        "el_residual": res.residual < tol,
        "pohozaev_MH": abs(q.M - q.H) / res.m_gs < tol,
        "pohozaev_ML_V": abs(q.M - q.L_V) / res.m_gs < tol,
        "pohozaev_HL_V": abs(q.H - q.L_V) / res.m_gs < tol,
        "nonnegative": bool(np.min(res.Q) > -1e-12),
    }
    save_ground_state(os.path.join(out_dir, "ground_state.txt"), res, params, grid)
    return {"m_gs": res.m_gs, "el_residual": res.residual,
            "M": q.M, "H": q.H, "L_V": q.L_V,
            "pohozaev_defects": {"MH": abs(q.M - q.H) / res.m_gs,
                                 "ML_V": abs(q.M - q.L_V) / res.m_gs,
                                 "HL_V": abs(q.H - q.L_V) / res.m_gs},
            "iterations": res.iterations, "checks": checks}


def _scenario_evolve(cfg, out_dir):
    params, grid, plan, km = _build(cfg)
    u0, _ = _initial_data(cfg, params, grid, plan, km)
    traj = evolve(u0, _integrator(cfg), plan, km)
    _export_trajectory(out_dir, cfg, traj, grid, lambdas=cfg["concentrate.lambdas"])
    q0, qT = traj.quantities[0], traj.quantities[-1]
    mass_drift = abs(qT.M - q0.M) / q0.M if q0.M > 0 else 0.0
    energy_drift = abs(qT.E - q0.E) / abs(q0.E) if q0.E != 0 else abs(qT.E - q0.E)
    checks = {
        "times_increasing": bool(np.all(np.diff(traj.times) > 0)),
        "finite": all(np.isfinite([q.M, q.H, q.E]).all() for q in traj.quantities),
    }
    if traj.stop_reason == "completed":
        checks["mass_conserved"] = mass_drift < 1e-10
    return {"stop_reason": traj.stop_reason, "stop_time": traj.stop_time,
            "mass_drift": mass_drift, "energy_drift": energy_drift,
            "M0": q0.M, "E0": q0.E, "checks": checks}


def _scenario_blowup(cfg, out_dir, want_concentration=False):
    params, grid, plan, km = _build(cfg)
    if cfg["init.profile"] not in ("pseudo-conformal", "file"):
        raise ValueError("blowup/concentrate scenarios need init.profile = "
                         "pseudo-conformal (or a field file)")
    u0, _ = _initial_data(cfg, params, grid, plan, km)
    traj = evolve(u0, _integrator(cfg), plan, km)
    E0 = traj.quantities[0].E
    summary = {"stop_reason": traj.stop_reason, "stop_time": traj.stop_time,
               "E0": E0, "T_star_config": cfg["init.T_star"]}
    checks = {"blowup_stop": traj.stop_reason in
              ("blowup-suspected", "blowup-resolved-limit", "h-threshold")}
    lam_of_t = None
    try:
        T_est, p = fit_blowup(traj)
        gam = np.asarray(traj.gamma)
        ts = np.asarray(traj.times)
        const = gam / (T_est - ts)**2
        summary["fit"] = {"T_star": T_est, "exponent": p,
                          "gamma_parabola_constant": float(np.median(const)),
                          "eight_E0": 8 * E0}
        checks["exponent_near_2"] = abs(p - 2.0) < 0.1
        checks["gamma_parabola"] = abs(float(np.median(const)) - 8 * E0) \
            <= 0.02 * abs(8 * E0)
        lam_of_t = (lambda t: math.sqrt(max(T_est - t, 0.0)))
    except FitRejected as exc:
        summary["fit"] = {"rejected": str(exc)}
        checks["fit_accepted"] = False
    if want_concentration and traj.fields:
        lams = cfg["concentrate.lambdas"]
        last = traj.fields[-1]
        t_last = traj.times[-1]
        conc = {}
        for lam in lams:
            eff = lam * lam_of_t(t_last) if lam_of_t else lam
            conc[_fmt(lam)] = concentration(last, eff, grid)
        summary["concentration_last_sample"] = conc
    _export_trajectory(out_dir, cfg, traj, grid,
                       lambdas=cfg["concentrate.lambdas"], lam_of_t=lam_of_t)
    summary["checks"] = checks
    return summary


def _random_fields(params, grid, rng, count, complex_valued=False):
    """Smooth seeded radial fields in the natural class: an r^{-rho} envelope
    times a few random Gaussians plus random (origin-vanishing) shells."""
    r = grid.r
    env = r**(-params.rho)
    fields = []
    for _ in range(count):
        u = np.zeros(grid.n, dtype=complex if complex_valued else float)
        for _ in range(3):
            amp = rng.uniform(0.2, 1.0)
            sig = rng.uniform(0.5, 2.0)
            u = u + amp * env * np.exp(-r**2 / (2 * sig**2))
            s0 = rng.uniform(1.0, 0.4 * grid.r_max)
            wdt = rng.uniform(0.3, 1.0)
            u = u + rng.uniform(-0.5, 0.5) * np.exp(-(r - s0)**2 / (2 * wdt**2))
        if complex_valued:
            phase = rng.uniform(0, 2 * math.pi) * np.tanh(r)
            u = u * np.exp(1j * phase)
        fields.append(u)
    return fields


def _scenario_verify(cfg, out_dir):
    params, grid, plan, km = _build(cfg)
    rng = np.random.default_rng(cfg["seed"])
    count = cfg["verify.fields"]
    gs = solve_ground_state(params, grid, plan, km, _gs_options(cfg))
    m_gs = gs.m_gs
    hardy_bound = (2.0 / (params.d - 2))**2

    real_fields = _random_fields(params, grid, rng, count)
    cplx_fields = _random_fields(params, grid, rng, count, complex_valued=True)

    hardy_viol = sum(hardy_ratio(u, plan) > hardy_bound * (1 + 1e-9)
                     for u in real_fields)
    gn_report = gn_audit(real_fields + [np.abs(u) for u in cplx_fields],
                         m_gs, plan, km)

    rearr_viol = 0
    for u in real_fields:
        v = rearrange_decreasing(u, grid)
        M_u = float(np.sum(grid.w * np.abs(u)**2))
        M_v = float(np.sum(grid.w * v**2))
        g_u = float(np.sum(grid.w * np.abs(radial_derivative(plan, u))**2))
        g_v = float(np.sum(grid.w * np.abs(radial_derivative(plan, v))**2))
        lv_u, lv_v = lv_value(km, np.abs(u)), lv_value(km, v)
        slack = 1e-9
        if abs(M_v - M_u) > slack * M_u or g_v > g_u * (1 + slack) \
                or lv_v < lv_u * (1 - slack):
            rearr_viol += 1

    # HLS continuity: |L_V(u) - L_V(v)| <= sqrt(B(f+g,f+g) B(f-g,f-g))/4 with
    # f = |u|^2, g = |v|^2 (Cauchy-Schwarz in the positive-definite form)
    hls_viol = 0
    for u in real_fields:
        v = u + 0.05 * rng.standard_normal() * u
        f, g = np.abs(u)**2, np.abs(v)**2

        def form(x):
            return km.omega**2 / 4 * float(np.sum(grid.w * x * (km.Kw @ x)))
        lhs = abs(form(f) - form(g))
        rhs = math.sqrt(max(form(f + g), 0.0) * max(form(f - g), 0.0))
        if lhs > rhs * (1 + 1e-9) + 1e-12:
            hls_viol += 1

    rot_viol, disc_viol = 0, 0
    r0 = 0.3 * grid.r_max                           # smooth, decaying profile
    theta_vals = np.exp(-(grid.r - r0)**2)
    theta_prime = 2 * (r0 - grid.r) * theta_vals
    for u in cplx_fields:
        q = functionals(u, plan, km)
        u_th = u * math.sqrt(m_gs / q.M)            # rescale to threshold mass
        rep = rotated_energy_check(u_th, theta_vals, 0.3, plan, km, m_gs=m_gs,
                                   theta_prime=theta_prime)
        scale = max(abs(rep.lhs), abs(rep.rhs), 1.0)
        if rep.mismatch > 1e-6 * scale + 1e-5:
            rot_viol += 1
        if rep.discriminant is not None and \
                rep.discriminant > 1e-9 * max(rep.quad_term, 1.0):
            disc_viol += 1

    checks = {"hardy": hardy_viol == 0, "gn": gn_report.violations == 0,
              "rearrangement": rearr_viol == 0, "hls_continuity": hls_viol == 0,
              "rotated_energy": rot_viol == 0, "discriminant": disc_viol == 0}
    return {"fields": count, "m_gs": m_gs, "hardy_bound": hardy_bound,
            "violations": {"hardy": hardy_viol, "gn": gn_report.violations,
                           "rearrangement": rearr_viol, "hls": hls_viol,
                           "rotated_energy": rot_viol, "discriminant": disc_viol},
            "checks": checks}


def _scenario_sweep(cfg, out_dir):
    key, values = cfg["sweep.key"], cfg["sweep.values"]
    base = dict(cfg.raw)
    base["scenario"] = cfg["sweep.scenario"]
    results = {}

    def one(idx_val):
        idx, val = idx_val
        raw = dict(base)
        raw[key] = val
        sub_dir = os.path.join(out_dir, f"sweep-{idx:03d}")
        text = "\n".join(f"{k} = {v}" for k, v in raw.items() if k != "output.dir")
        sub = parse_config(text, overrides=[f"output.dir = {sub_dir}"])
        return idx, val, run_scenario(sub, sub_dir)

    with ThreadPoolExecutor(max_workers=cfg["sweep.workers"]) as pool:
        for idx, val, summary in pool.map(one, enumerate(values)):
            results[f"{idx:03d}:{key}={val}"] = {
                "pass": summary["pass"], "out": f"sweep-{idx:03d}"}
    checks = {"all_runs_pass": all(v["pass"] for v in results.values())}
    return {"swept_key": key, "runs": results, "checks": checks}


_SCENARIO_FNS = {
    "ground-state": _scenario_ground_state,
    "evolve": _scenario_evolve,
    "blowup": lambda cfg, out: _scenario_blowup(cfg, out),
    "concentrate": lambda cfg, out: _scenario_blowup(cfg, out, want_concentration=True),
    "verify": _scenario_verify,
    "sweep": _scenario_sweep,
}


def run_scenario(cfg: RunConfig, out_dir: str | None = None) -> dict:
    """Execute the configured scenario; writes artifacts and summary.json.

    Module errors are captured into the summary (pass = False), never lost.
    """
    out_dir = out_dir or cfg["output.dir"]
    os.makedirs(out_dir, exist_ok=True)
    summary = {"scenario": cfg["scenario"], "config": dict(sorted(cfg.raw.items())),
               "config_hash": config_hash(cfg), "seed": cfg["seed"]}
    try:
        summary.update(_SCENARIO_FNS[cfg["scenario"]](cfg, out_dir))
        summary["pass"] = all(summary.get("checks", {}).values())
    except Exception as exc:  # noqa: BLE001 - captured into the summary by contract
        summary["error"] = {"type": type(exc).__name__, "message": str(exc),
                            "traceback": traceback.format_exc()}
        if isinstance(exc, GroundStateError):
            summary["error"]["trace"] = exc.trace
        summary["pass"] = False
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hartreelab",
        description="Mass-critical Hartree equation with inverse-square "
                    "potential: ground states, evolution, blow-up diagnostics.")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="config file path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="random seed")
        p.add_argument("--override", action="append", default=[],
                       metavar="key=value", help="config override (repeatable)")
    args = parser.parse_args(argv)

    text = ""
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    overrides = [f"scenario = {args.scenario}"] + list(args.override)
    if args.out is not None:
        overrides.append(f"output.dir = {args.out}")
    if args.seed is not None:
        overrides.append(f"seed = {args.seed}")
    try:
        cfg = parse_config(text, overrides=overrides)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2
    summary = run_scenario(cfg)
    print(json.dumps({"scenario": summary["scenario"], "pass": summary["pass"],
                      "out": cfg["output.dir"]}, sort_keys=True))
    return 0 if summary["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
