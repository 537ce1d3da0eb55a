"""Config-driven batch front door.

Configs are flat UTF-8 ``key = value`` text with dotted keys (``#`` comments
allowed); the full schema with defaults is the SCHEMA table below.  Its
``integrator.*``, ``ground_state.*`` and ``init.<param>`` keys are the fields
of ``IntegratorConfig``, ``GroundStateOptions`` and ``profiles.ProfileOptions``,
which hold their defaults and checks.  Unknown keys are rejected and
validation reports *all* problems, not just the first.

Subcommands: ground-state | evolve | blowup | verify | concentrate | sweep,
with flags --config PATH, --out DIR, --seed N, --override key=value
(repeatable).  Every run writes a machine-readable ``summary.json`` embedding
the fully resolved config, a short config hash, and the pass/fail of every
invariant checked; the process exit status reflects the overall pass flag.
Trajectory scenarios additionally write ``trajectory.csv`` (columns
t, M, H, E, L_V, Gamma, GammaPrime, conc@lam..., stop_reason; RFC-style,
header row, '.' decimal); the run metadata lives in ``summary.json`` alone.

Identical config + seed produce bit-identical CSV/JSON outputs: floats are
serialized with shortest-roundtrip repr and JSON keys are sorted.  A failed
run also writes ``traceback.txt``, whose source paths and line numbers put it
outside that contract.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import sys
import traceback
import typing
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

from .evolution import (BOUNDARY_TOL, FitRejected, IntegratorConfig,
                        concentration, evolve, fit_blowup, pseudo_conformal_family,
                        rotated_energy_check)
from .functionals import functionals, hardy_ratio, rearrange_decreasing
from .ground_state import (GroundStateError, GroundStateOptions, gn_audit,
                           load_ground_state, solve_ground_state,
                           save_ground_state)
from .grid import build_grid, radial_derivative
from .hartree import apply_kernel, build_kernel, lv_value
from .params import make_params
from .profiles import (PROFILE_NAMES, ProfileOptions, gaussian_profile,
                       make_initial_data, shell_profile)
from .transform import build_plan

SCENARIOS = ("ground-state", "evolve", "blowup", "verify", "concentrate", "sweep")


def _float_list(text: str) -> list:
    return [float(x) for x in text.split(",") if x.strip()]


def _str_list(text: str) -> list:
    return [x.strip() for x in text.split(",") if x.strip()]


def _rows(section: str, cls) -> dict:
    """SCHEMA rows `section.<field>` -> (type, default) of each field of cls."""
    types = typing.get_type_hints(cls)
    return {f"{section}.{f.name}": (types[f.name], f.default) for f in dataclasses.fields(cls)}


# key -> (parser, default); validation beyond parsing happens in parse_config
SCHEMA = {
    "scenario": (str, "ground-state"),
    "model.d": (int, 3),
    "model.a": (float, -0.1),
    "grid.n": (int, 256),
    "grid.r_max": (float, 12.0),
    **_rows("integrator", IntegratorConfig),
    **_rows("ground_state", GroundStateOptions),
    "init.profile": (str, "gaussian"),
    "init.file": (str, ""),
    **_rows("init", ProfileOptions),
    "output.dir": (str, "out"),
    "seed": (int, 0),
    "concentrate.lambdas": (_float_list, [1.0]),
    "verify.fields": (int, 50),
    "sweep.scenario": (str, "ground-state"),
    "sweep.key": (str, ""),
    "sweep.values": (_str_list, []),
    # W = min(workers, values) > 1 concurrent sub-runs get max(1, T // W) of
    # each OpenBLAS library's T threads, so a sub-run's results are those of a
    # run at that count: `m_gs` can differ from a T-thread run in its last bits
    # (<= 7e-16 relative), and reruns are bit-identical.  A 5-coupling n = 512
    # sweep on 2 cores took a median 0.67 / 0.49 / 0.50 s with 1 / 2 / 4
    # workers.  The default stays 1 because every config hash covers it.
    "sweep.workers": (int, 1),
}


class ConfigError(ValueError):
    """Carries the full list of validation problems in .errors."""

    def __init__(self, errors):
        super().__init__("invalid configuration:\n  " + "\n  ".join(errors))
        self.errors = list(errors)


def _fmt(x) -> str:
    """The string form of a CSV cell or config value."""
    if isinstance(x, float):
        return repr(float(x))   # float() drops numpy scalar wrappers
    return str(x)


def _resolved_raw(values: dict) -> dict:
    """Each key of a resolved config, sorted, -> the string form of its value
    (a list's items joined by commas), each written by `_fmt`."""
    out = {}
    for k in sorted(SCHEMA):
        v = values[k]
        out[k] = ",".join(map(_fmt, v)) if isinstance(v, list) else _fmt(v)
    return out


def config_hash(cfg: dict) -> str:
    """Short hash of the resolved config, excluding the output location."""
    blob = "\n".join(f"{k}={v}" for k, v in _resolved_raw(cfg).items()
                     if k != "output.dir")
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def parse_config(text: str, overrides=None, scenario=None) -> dict:
    """The resolved config, key -> typed value, of config text and override
    items (which, unlike text lines, are not cut at `#`).  An override
    replaces a value of the text.  Raises ConfigError listing *all* problems,
    among them a key set twice by the text or twice by the overrides, and a
    scenario other than `scenario`, the subcommand, if one is given."""
    errors = []
    pairs = {}
    lines = [(f"line {lineno}", body) for lineno, line in enumerate(text.splitlines(), 1)
             if (body := line.split("#", 1)[0]).strip()]
    for group in (lines, [(f"override {item!r}", item) for item in overrides or []]):
        set_by = {}
        for where, item in group:
            if "=" not in item:
                errors.append(f"{where}: expected 'key = value', got {item.strip()!r}")
                continue
            key, val = (part.strip() for part in item.split("=", 1))
            if key not in SCHEMA:
                errors.append(f"{where}: unknown key {key!r}")
            elif key in set_by:
                errors.append(f"{where}: key {key!r} already set by {set_by[key]}")
            else:
                set_by[key] = where
                pairs[key] = val
    if scenario is not None:
        if pairs.get("scenario", scenario) != scenario:
            errors.append(f"key scenario: the config sets {pairs['scenario']!r}, "
                          f"the subcommand is {scenario!r}")
        pairs["scenario"] = scenario

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
        """Run builder; each line of its error that opens "<field> must" is
        reported under the key `<key's section>.<field>` if there is one, any
        other under `key`."""
        try:
            builder()
        except KeyError:
            pass            # a value it needs did not parse; reported above
        except (ValueError, TypeError) as exc:
            for line in str(exc).splitlines():
                own = f"{key.split('.')[0]}.{line.split(' must', 1)[0]}"
                errors.append(f"key {own if own in SCHEMA else key}: {line}")

    if values.get("scenario") not in SCENARIOS:
        errors.append(f"key scenario: must be one of {SCENARIOS}, "
                      f"got {values.get('scenario')!r}")
    check("model.a", lambda: make_params(values["model.d"], values["model.a"]))
    if values.get("grid.n", 16) < 16:
        errors.append(f"key grid.n: must be >= 16, got {values['grid.n']}")
    if not 0 < values.get("grid.r_max", 1.0) < math.inf:
        errors.append(f"key grid.r_max: must be positive and finite, "
                      f"got {values['grid.r_max']}")
    # a t_end / dt mismatch names no single field and is reported under dt
    check("integrator.dt", lambda: _options(values, "integrator", IntegratorConfig))
    check("ground_state", lambda: _options(values, "ground_state", GroundStateOptions))
    check("init", lambda: _options(values, "init", ProfileOptions))
    if values.get("init.profile") not in PROFILE_NAMES + ("file",):
        errors.append(f"key init.profile: must be one of {PROFILE_NAMES + ('file',)}, "
                      f"got {values.get('init.profile')!r}")
    if (values.get("scenario") in ("blowup", "concentrate")
            and values.get("init.profile") not in ("pseudo-conformal", "file")):
        errors.append(f"key init.profile: the {values['scenario']} scenario needs "
                      f"pseudo-conformal or file, got {values.get('init.profile')!r}")
    if values.get("init.profile") == "file":
        check("init.file", lambda: _field_file(values))
    if not all(0 < lam < math.inf for lam in values.get("concentrate.lambdas", [])):
        errors.append(f"key concentrate.lambdas: every radius must be positive "
                      f"and finite, got {values['concentrate.lambdas']}")
    if values.get("verify.fields", 1) < 1:
        errors.append("key verify.fields: must be >= 1")
    if values.get("seed", 0) < 0:
        errors.append(f"key seed: must be >= 0, got {values['seed']}")
    if values.get("scenario") == "sweep":
        if values.get("sweep.key") not in SCHEMA:
            errors.append(f"key sweep.key: unknown target key {values.get('sweep.key')!r}")
        elif values["sweep.key"] in ("scenario", "output.dir") \
                or values["sweep.key"].startswith("sweep."):
            errors.append(f"key sweep.key: cannot sweep {values['sweep.key']!r}; "
                          f"a sub-run sets its own scenario, output.dir and sweep.*")
        if not values.get("sweep.values"):
            errors.append("key sweep.values: sweep requires a non-empty value list")
        if values.get("sweep.scenario") not in SCENARIOS or values.get("sweep.scenario") == "sweep":
            errors.append("key sweep.scenario: must be a non-sweep scenario")
        if values.get("sweep.workers", 1) < 1:
            errors.append(f"key sweep.workers: must be >= 1, got {values['sweep.workers']}")
        if not errors:          # else every sub-run would repeat the base's errors
            for idx, val in enumerate(values["sweep.values"]):
                try:
                    parse_config("", overrides=_sweep_items(values, values["sweep.key"], val))
                except ConfigError as exc:
                    errors += [f"key sweep.values: value {idx} ({val!r}): {err}"
                               for err in exc.errors]
    if errors:
        raise ConfigError(errors)
    return values


def _sweep_items(cfg: dict, key: str, val: str) -> list:
    """Override items of one sweep sub-run: the resolved base config with the
    sub-run's scenario and the swept key set, and no output location."""
    sub = dict(_resolved_raw(cfg), scenario=cfg["sweep.scenario"])
    sub[key] = val
    return [f"{k} = {v}" for k, v in sub.items() if k != "output.dir"]


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


def _build(cfg: dict):
    params = make_params(cfg["model.d"], cfg["model.a"])
    grid = build_grid(cfg["model.d"], cfg["grid.n"], cfg["grid.r_max"])
    plan = build_plan(params, grid)
    km = build_kernel(grid, params)
    return params, grid, plan, km


def _options(cfg, section: str, cls):
    """cls(**fields), each field read from the key `section.<field>` of cfg."""
    return cls(**{f.name: cfg[f"{section}.{f.name}"] for f in dataclasses.fields(cls)})


def _field_file(cfg) -> np.ndarray:
    """The field of `init.file`; raises ValueError naming the file, one line
    per key of the config's model and grid that its header does not match."""
    path = cfg["init.file"]
    if not os.path.isfile(path):
        raise ValueError(f"{path!r} is not a regular file")
    try:
        meta, _, Q = load_ground_state(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"field file {path!r}: cannot read: {exc}") from None
    mismatches = [f"field file {path!r}: {key} = {meta[name]!r} does not match "
                  f"config {key} = {cfg[key]!r}"
                  for key in ("model.d", "model.a", "grid.n", "grid.r_max")
                  if not abs(meta[(name := key.split(".")[1])] - cfg[key]) <= 1e-12]
    if mismatches:
        raise ValueError("\n".join(mismatches))
    return Q


def _initial_data(cfg, params, grid, plan, km):
    """Initial field per config; solves the ground state when the profile
    needs it.  Returns (u0, ground_state_result_or_None)."""
    name = cfg["init.profile"]
    if name == "file":
        return np.asarray(_field_file(cfg), dtype=complex), None
    gs = None
    if name in ("ground-state", "pseudo-conformal"):
        gs = solve_ground_state(params, grid, plan, km,
                                _options(cfg, "ground_state", GroundStateOptions))
    u0 = make_initial_data(name, dataclasses.asdict(_options(cfg, "init", ProfileOptions)),
                           params, grid, plan, None if gs is None else gs.Q)
    return np.asarray(u0, dtype=complex), gs


def _export_trajectory(out_dir, cfg, traj, grid, lam_of_t=None):
    """trajectory.csv.  The windows are the static radii
    `concentrate.lambdas`; if `lam_of_t` is given they are
    lam_i(t) = lambdas[i]*lam_of_t(t).  Returns the last row, keyed by column."""
    lambdas = cfg["concentrate.lambdas"]
    labels = [f"conc@{_fmt(lam)}" for lam in lambdas]
    header = ["t", "M", "H", "E", "L_V", "Gamma", "GammaPrime"] + labels + ["stop_reason"]
    rows = []
    nsamp = len(traj.times)
    for i in range(nsamp):
        q = traj.quantities[i]
        row = [traj.times[i], q.M, q.H, q.E, q.L_V, traj.gamma[i], traj.gamma_prime[i]]
        for lam in lambdas:
            eff = lam * lam_of_t(traj.times[i]) if lam_of_t else lam
            row.append(concentration(traj.fields[i], eff, grid))
        row.append(traj.stop_reason if i == nsamp - 1 else "")
        rows.append(row)
    _write_csv(os.path.join(out_dir, "trajectory.csv"), header, rows)
    return dict(zip(header, rows[-1]))


def _scenario_ground_state(cfg, out_dir):
    params, grid, plan, km = _build(cfg)
    opts = _options(cfg, "ground_state", GroundStateOptions)
    res = solve_ground_state(params, grid, plan, km, opts)
    q = functionals(res.Q, plan, km)
    tol = opts.residual_tol
    defects = {"MH": abs(q.M - q.H) / res.m_gs, "ML_V": abs(q.M - q.L_V) / res.m_gs,
               "HL_V": abs(q.H - q.L_V) / res.m_gs}
    checks = {
        "el_residual": res.residual < tol,
        **{f"pohozaev_{pair}": defect < tol for pair, defect in defects.items()},
        "nonnegative": bool(np.min(res.Q) > -1e-12),
        "boundary_mass": res.boundary_mass_fraction <= BOUNDARY_TOL,
    }
    save_ground_state(os.path.join(out_dir, "ground_state.txt"), res, params, grid)
    return {"m_gs": res.m_gs, "el_residual": res.residual,
            "M": q.M, "H": q.H, "L_V": q.L_V, "pohozaev_defects": defects,
            "iterations": res.iterations,
            "diagnostics": {"residuals": res.residuals,
                            "nu_final": res.nu_final,
                            "boundary_mass_fraction": res.boundary_mass_fraction,
                            "pohozaev_wall": res.pohozaev_wall},
            "checks": checks}


def _drifts(traj):
    """Per-sample |M - M0|/M0 and |E - E0|/|E0| (0 and |E - E0| when M0 or
    E0 is 0)."""
    q0 = traj.quantities[0]
    M = np.array([q.M for q in traj.quantities])
    E = np.array([q.E for q in traj.quantities])
    dm = np.abs(M - q0.M) / q0.M if q0.M > 0 else np.zeros_like(M)
    de = np.abs(E - q0.E) / abs(q0.E) if q0.E != 0 else np.abs(E - q0.E)
    return dm, de


def _worst(values, times) -> dict:
    """The largest of `values` and the time of its first occurrence."""
    i = int(np.argmax(values))
    return {"value": float(values[i]), "t": times[i]}


def _evolution_diagnostics(traj, dm, de) -> dict:
    """Why an evolution stopped and how its invariants drifted (`_drifts`)."""
    return {"boundary_flagged_samples": int(sum(traj.boundary_flags)),
            "max_mass_drift": _worst(dm, traj.times),
            "max_energy_drift": _worst(de, traj.times),
            "stop_value": traj.stop_value}


def _max_exact_error(cfg, traj, plan, gs):
    """The largest relative w-weighted L2 distance between a sample and the
    exact pseudo-conformal solution the run started on, with its time, or
    None for `file` data (gs None).  Samples at or past T* are left out."""
    if gs is None:
        return None
    T, t0, w = cfg["init.T_star"], cfg["init.t0"], plan.grid.w
    exact = (pseudo_conformal_family(gs.Q, T, cfg["init.theta"], t0 + t, plan)
             for t in traj.times if t0 + t < T)
    errs = [math.sqrt(np.sum(w * np.abs(u - v)**2) / np.sum(w * np.abs(v)**2))
            for u, v in zip(traj.fields, exact)]
    return _worst(errs, traj.times)


def _scenario_evolve(cfg, out_dir):
    params, grid, plan, km = _build(cfg)
    u0, _ = _initial_data(cfg, params, grid, plan, km)
    traj = evolve(u0, _options(cfg, "integrator", IntegratorConfig), plan, km)
    _export_trajectory(out_dir, cfg, traj, grid)
    q0 = traj.quantities[0]
    dm, de = _drifts(traj)
    mass_drift, energy_drift = float(dm[-1]), float(de[-1])
    checks = {
        "times_increasing": bool(np.all(np.diff(traj.times) > 0)),
        "finite": all(np.isfinite([q.M, q.H, q.E]).all() for q in traj.quantities),
    }
    if traj.stop_reason == "completed":
        checks["mass_conserved"] = mass_drift < 1e-10
    return {"stop_reason": traj.stop_reason, "stop_time": traj.stop_time,
            "mass_drift": mass_drift, "energy_drift": energy_drift,
            "M0": q0.M, "E0": q0.E, "diagnostics": _evolution_diagnostics(traj, dm, de),
            "checks": checks}


def _scenario_blowup(cfg, out_dir):
    params, grid, plan, km = _build(cfg)
    u0, gs = _initial_data(cfg, params, grid, plan, km)
    traj = evolve(u0, _options(cfg, "integrator", IntegratorConfig), plan, km)
    E0 = traj.quantities[0].E
    summary = {"stop_reason": traj.stop_reason, "stop_time": traj.stop_time,
               "E0": E0, "T_star_config": cfg["init.T_star"],
               "diagnostics": dict(_evolution_diagnostics(traj, *_drifts(traj)),
                                   max_exact_error=_max_exact_error(cfg, traj, plan, gs))}
    checks = {"blowup_stop": traj.stop_reason in
              ("blowup-suspected", "blowup-resolved-limit")}
    lam_of_t = None
    try:
        T_est, p = fit_blowup(traj)
        const = float(np.median(np.asarray(traj.gamma) / (T_est - np.asarray(traj.times))**2))
        summary["fit"] = {"T_star": T_est, "exponent": p,
                          "gamma_parabola_constant": const, "eight_E0": 8 * E0}
        checks["exponent_near_2"] = abs(p - 2.0) < 0.1
        checks["gamma_parabola"] = abs(const - 8 * E0) <= 0.02 * abs(8 * E0)
        lam_of_t = (lambda t: math.sqrt(T_est - t))   # T_est lies past every sample
    except FitRejected as exc:
        summary["fit"] = {"rejected": str(exc)}
        checks["fit_accepted"] = False
    last = _export_trajectory(out_dir, cfg, traj, grid, lam_of_t=lam_of_t)
    if cfg["scenario"] == "concentrate":     # and each window's mass at the last sample
        summary["concentration_last_sample"] = {
            _fmt(lam): last[f"conc@{_fmt(lam)}"] for lam in cfg["concentrate.lambdas"]}
    summary["checks"] = checks
    return summary


def _random_fields(params, grid, rng, count, complex_valued=False):
    """Smooth seeded radial fields in the natural class: an r^{-rho} envelope
    times a few random Gaussians plus random (origin-vanishing) shells."""
    fields = []
    for _ in range(count):
        u = np.zeros(grid.n, dtype=complex if complex_valued else float)
        for _ in range(3):          # the arguments draw in the order written
            u = u + gaussian_profile(params, grid, amplitude=rng.uniform(0.2, 1.0),
                                     sigma=rng.uniform(0.5, 2.0))
            u = u + shell_profile(params, grid, rng.uniform(1.0, 0.4 * grid.r_max),
                                  rng.uniform(0.3, 1.0), rng.uniform(-0.5, 0.5))
        if complex_valued:
            phase = rng.uniform(0, 2 * math.pi) * np.tanh(grid.r)
            u = u * np.exp(1j * phase)
        fields.append(u)
    return fields


def _scenario_verify(cfg, out_dir):
    params, grid, plan, km = _build(cfg)
    rng = np.random.default_rng(cfg["seed"])
    count = cfg["verify.fields"]
    m_gs = solve_ground_state(params, grid, plan, km,
                              _options(cfg, "ground_state", GroundStateOptions)).m_gs
    hardy_bound = (2.0 / (params.d - 2))**2
    real_fields = _random_fields(params, grid, rng, count)
    cplx_fields = _random_fields(params, grid, rng, count, complex_valued=True)
    moduli = [np.abs(u) for u in cplx_fields]

    def rearrangement_fails(u, slack=1e-9):
        # the decreasing rearrangement v keeps M, lowers |grad|^2 and raises L_V
        v = rearrange_decreasing(u, grid)
        M_u, M_v, g_u, g_v = (float(np.sum(grid.w * np.abs(x)**2)) for x in
                              (u, v, radial_derivative(grid, params.rho, u),
                               radial_derivative(grid, params.rho, v)))
        return (abs(M_v - M_u) > slack * M_u or g_v > g_u * (1 + slack)
                or lv_value(km, v) < lv_value(km, u) * (1 - slack))

    def form(x):
        return km.omega**2 / 4 * float(np.sum(grid.w * x * apply_kernel(km, x)))

    def hls_fails(f, g):
        # Cauchy-Schwarz in the positive-definite form: B(f,f) - B(g,g) = B(f+g, f-g)
        lhs = abs(form(f) - form(g))
        return lhs > math.sqrt(max(form(f + g), 0.0) * max(form(f - g), 0.0)) * (1 + 1e-9) + 1e-12

    r0 = 0.3 * grid.r_max                           # smooth, decaying profile
    theta = np.exp(-(grid.r - r0)**2)
    theta_prime = 2 * (r0 - grid.r) * theta
    reports = [rotated_energy_check(                # each at the threshold mass
        u * math.sqrt(m_gs / functionals(u, plan, km).M), theta, 0.3, plan, km,
        m_gs=m_gs, theta_prime=theta_prime) for u in cplx_fields]
    violations = {
        "hardy": sum(hardy_ratio(u, plan) > hardy_bound * (1 + 1e-9) for u in real_fields),
        "gn": gn_audit(real_fields + moduli, m_gs, plan, km),
        "rearrangement": sum(map(rearrangement_fails, real_fields)),
        "hls": sum(hls_fails(u**2, g**2) for u, g in zip(real_fields, moduli)),
        "rotated_energy": sum(rep.mismatch > 1e-6 * max(abs(rep.lhs), abs(rep.rhs), 1.0) + 1e-5
                              for rep in reports),
        "discriminant": sum(rep.discriminant is not None
                            and rep.discriminant > 1e-9 * max(rep.quad_term, 1.0)
                            for rep in reports)}
    return {"fields": count, "m_gs": m_gs, "hardy_bound": hardy_bound, "violations": violations,
            "checks": {name: n == 0 for name, n in violations.items()}}


#: (get, set) thread-count functions of OpenBLAS: the 64- and 32-bit integer
#: scipy-openblas builds that numpy wheels ship, then a plain OpenBLAS.  The
#: package imports no scipy, so a CLI process maps numpy's OpenBLAS alone; a
#: caller that imports scipy adds scipy's.
_OPENBLAS_THREAD_FNS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _blas_controls() -> list:
    """(get, set) thread-count functions of every OpenBLAS library the
    process has loaded; empty if none is found.  A module linked against a
    library yields that library's pair again."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "blas" in line.lower() and ".so" in line})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_FNS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return controls


@contextmanager
def _blas_threads_per_worker(workers: int):
    """Share each OpenBLAS library's T threads among `workers` concurrent
    sub-runs: max(1, T // workers) while the block runs, T again after it,
    raising or not.  Every T is read before any count is set.  Yields the
    count set (the largest, should libraries differ), or None when `workers`
    is 1 or no library is found.  The caller enters and leaves the block
    while no BLAS call runs."""
    controls = _blas_controls() if workers > 1 else []
    before = [get() for get, _ in controls]
    shares = [max(1, t // workers) for t in before]
    for (_, put), share in zip(controls, shares):
        put(share)
    try:
        yield max(shares, default=None)
    finally:
        for (_, put), t in zip(controls, before):
            put(t)


def _scenario_sweep(cfg, out_dir):
    key, values = cfg["sweep.key"], cfg["sweep.values"]
    workers = min(cfg["sweep.workers"], len(values))
    results = {}

    def one(idx_val):
        idx, val = idx_val
        sub_dir = os.path.join(out_dir, f"sweep-{idx:03d}")
        sub = parse_config("", overrides=_sweep_items(cfg, key, val)
                           + [f"output.dir = {sub_dir}"])
        return idx, val, run_scenario(sub, sub_dir)

    # concurrent sub-runs that each asked BLAS for every core would contend;
    # the pool is shut down, every sub-run done, before the count is restored
    with _blas_threads_per_worker(workers) as blas_threads, \
            ThreadPoolExecutor(max_workers=workers) as pool:
        for idx, val, summary in pool.map(one, enumerate(values)):
            results[f"{idx:03d}:{key}={val}"] = {
                "pass": summary["pass"], "out": f"sweep-{idx:03d}"}
    checks = {"all_runs_pass": all(v["pass"] for v in results.values())}
    return {"swept_key": key, "runs": results, "blas_threads": blas_threads,
            "checks": checks}


_SCENARIO_FNS = {
    "ground-state": _scenario_ground_state,
    "evolve": _scenario_evolve,
    "blowup": _scenario_blowup,
    "concentrate": _scenario_blowup,
    "verify": _scenario_verify,
    "sweep": _scenario_sweep,
}


def _package_frames(exc: BaseException) -> list:
    """The frames of exc's traceback in this package, outermost first, as
    `hartreelab/<module>.py:<function>`."""
    here = os.path.dirname(os.path.abspath(__file__))
    return [f"hartreelab/{os.path.basename(fr.filename)}:{fr.name}"
            for fr in traceback.extract_tb(exc.__traceback__)
            if os.path.dirname(os.path.abspath(fr.filename)) == here]


def run_scenario(cfg: dict, out_dir: str | None = None) -> dict:
    """Execute the configured scenario; writes artifacts and summary.json.

    Module errors are captured into the summary (pass = False), never lost:
    `error` holds the exception's type, message and package frames, and the
    full traceback goes to `traceback.txt` beside it.
    """
    out_dir = out_dir or cfg["output.dir"]
    os.makedirs(out_dir, exist_ok=True)
    summary = {"scenario": cfg["scenario"], "config": _resolved_raw(cfg),
               "config_hash": config_hash(cfg), "seed": cfg["seed"]}
    try:
        summary.update(_SCENARIO_FNS[cfg["scenario"]](cfg, out_dir))
        summary["pass"] = all(summary.get("checks", {}).values())
    except Exception as exc:  # noqa: BLE001 - captured into the summary by contract
        # the full traceback holds source paths and line numbers, so it goes
        # to a sidecar; the summary keeps what any checkout gives alike
        summary["error"] = {"type": type(exc).__name__, "message": str(exc),
                            "frames": _package_frames(exc)}
        with open(os.path.join(out_dir, "traceback.txt"), "w") as fh:
            fh.write(traceback.format_exc())
        if isinstance(exc, GroundStateError):
            summary["error"]["residuals"] = exc.residuals
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
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"config error: cannot read {args.config!r}: {exc}", file=sys.stderr)
            return 2
    overrides = list(args.override)
    if args.out is not None:
        overrides.append(f"output.dir = {args.out}")
    if args.seed is not None:
        overrides.append(f"seed = {args.seed}")
    try:
        cfg = parse_config(text, overrides=overrides, scenario=args.scenario)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2
    try:        # an unusable output.dir is a config error, not a traceback
        os.makedirs(cfg["output.dir"], exist_ok=True)
    except OSError as exc:
        print(f"config error: key output.dir: {exc}", file=sys.stderr)
        return 2
    summary = run_scenario(cfg)
    print(json.dumps({"scenario": summary["scenario"], "pass": summary["pass"],
                      "out": cfg["output.dir"]}, sort_keys=True))
    return 0 if summary["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
