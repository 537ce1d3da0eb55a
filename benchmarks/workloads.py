"""The benchmark's workloads, driven through hartreelab's public functions.

A workload turns its seed into inputs, builds its discretisations in
`setup()` (timed as set-up) and lists its ops in `ops()`.  An op is one
ground-state solve, one `evolve` call, or one sweep sub-run.  Each op
function checks its own numerical results and returns an `Outcome`; an op
fails when it raises or when any check fails.

Every package function is looked up through a module attribute at call time
(`hl.solve_ground_state`, `hl.cli.run_scenario`), so the traced run sees
these calls once the tracer has patched those attributes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

import hartreelab as hl
import hartreelab.cli  # noqa: F401 - makes hl.cli available

#: stop reasons that count as a blow-up event
BLOWUP_STOPS = ("blowup-suspected", "blowup-resolved-limit", "h-threshold")


@dataclass
class Outcome:
    """What one op function produced.

    `problems` holds one list of failed checks per op the function stands
    for (a sweep stands for one op per sub-run); `arrays` are the numerical
    outputs whose bits must repeat across cycles and under tracing.
    """
    problems: list
    arrays: list = field(default_factory=list)
    figures: dict = field(default_factory=dict)


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _discretisation(d, a, n, r_max):
    params = hl.make_params(d, a)
    grid = hl.build_grid(d, n, r_max)
    return params, grid, hl.build_plan(params, grid), hl.build_kernel(grid, params)


def _quantity_arrays(traj):
    q = np.array([[x.M, x.H, x.E, x.L_V] for x in traj.quantities])
    return [np.asarray(traj.times), q, np.asarray(traj.gamma),
            np.asarray(traj.gamma_prime), traj.fields[-1]]


def _rel_drift(traj, attr):
    a0, a1 = getattr(traj.quantities[0], attr), getattr(traj.quantities[-1], attr)
    return abs(a1 - a0) / abs(a0)


class SubcriticalEvolution:
    """A subcritical gaussian evolved by both schemes; no ground-state solve."""

    name = "evolve-sub"
    RUNS = (("strang-split", 1e-4), ("midpoint-relaxation", 2e-4))

    def __init__(self, seed: int, n: int = 256, t_end: float = 1.0, runs=RUNS,
                 output_stride: int = 200):
        self.amplitude = float(np.random.default_rng(seed).uniform(0.40, 0.50))
        self.n, self.t_end, self.runs, self.stride = n, t_end, runs, output_stride

    def setup(self):
        return _discretisation(3, -0.1, self.n, 12.0)

    def ops(self, ctx):
        return [(f"evolve {scheme}", 1, self._evolver(ctx, scheme, dt))
                for scheme, dt in self.runs]

    def _evolver(self, disc, scheme, dt):
        params, grid, plan, km = disc

        def run(state):
            u0 = hl.make_initial_data("gaussian", {"amplitude": self.amplitude},
                                      params, grid)
            cfg = hl.IntegratorConfig(dt=dt, t_end=self.t_end, scheme=scheme,
                                      output_stride=self.stride)
            traj = hl.evolve(np.asarray(u0, dtype=complex), cfg, plan, km)
            mass, energy = _rel_drift(traj, "M"), _rel_drift(traj, "E")
            bad = []
            if traj.stop_reason != "completed":
                bad.append(f"stopped early: {traj.stop_reason}")
            if not mass < 1e-10:
                bad.append(f"mass drift {mass:.3e} >= 1e-10")
            if not energy < 1e-6:
                bad.append(f"energy drift {energy:.3e} >= 1e-6")
            steps = int(round(self.t_end / dt))
            return Outcome([bad], _quantity_arrays(traj),
                           {"energy_drift": energy, "mass_drift": mass,
                            "steps": steps})
        return run


class Blowup:
    """Ground state, pseudo-conformal data, evolution to the stop event, and
    the blow-up fit and concentration: the paper's headline run."""

    name = "blowup"
    n, T_star, dt, stride = 512, 1.0, 2e-4, 50
    #: m_gs of this ground state at the commit that defined the benchmark
    M_GS = 1.178460050643

    def __init__(self, seed: int):
        pass

    def setup(self):
        return _discretisation(3, -0.1, self.n, 12.0)

    def ops(self, ctx):
        return [("solve", 1, self._solve(ctx)), ("evolve", 1, self._evolve(ctx))]

    def _solve(self, disc):
        params, grid, plan, km = disc

        def solve(state):
            res = hl.solve_ground_state(params, grid, plan, km)
            state["gs"] = res
            tol = hl.GroundStateOptions().residual_tol
            bad = [] if res.residual <= tol else [f"residual {res.residual:.3e} > {tol:.0e}"]
            if not abs(res.m_gs - self.M_GS) <= 1e-9 * self.M_GS:
                bad.append(f"m_gs {res.m_gs!r} differs from the reference {self.M_GS!r}")
            return Outcome([bad], [res.Q, res.m_gs],
                           {"gs_residual": res.residual, "iterations": res.iterations})
        return solve

    def _evolve(self, disc):
        params, grid, plan, km = disc

        def run(state):
            gs = state.get("gs")
            if gs is None:
                raise RuntimeError("no ground state: the solve op failed")
            u0 = hl.make_initial_data("pseudo-conformal", {"T_star": self.T_star},
                                      params, grid, plan, gs.Q)
            cfg = hl.IntegratorConfig(dt=self.dt, t_end=self.T_star,
                                      output_stride=self.stride)
            traj = hl.evolve(u0, cfg, plan, km)
            T_est, p = hl.fit_blowup(traj)
            E0 = traj.quantities[0].E
            ts = np.asarray(traj.times)
            const = float(np.median(np.asarray(traj.gamma) / (T_est - ts) ** 2))
            lam = math.sqrt(max(T_est - ts[-1], 0.0))
            conc = hl.concentration(traj.fields[-1], lam, grid)
            bad = []
            if traj.stop_reason not in BLOWUP_STOPS:
                bad.append(f"no blow-up stop: {traj.stop_reason}")
            if not abs(p - 2.0) < 0.1:
                bad.append(f"rate exponent {p:.4f} not within 0.1 of 2")
            if not abs(T_est - self.T_star) < 0.02 * self.T_star:
                bad.append(f"T* {T_est:.5f} not within 2% of {self.T_star}")
            if not abs(const - 8 * E0) <= 0.02 * abs(8 * E0):
                bad.append(f"Gamma parabola {const:.5g} not within 2% of 8 E0 = {8 * E0:.5g}")
            if not conc >= 0.95 * gs.m_gs:
                bad.append(f"concentration {conc:.5g} < 0.95 M_gs")
            steps = int(round(traj.stop_time / self.dt))
            return Outcome([bad], _quantity_arrays(traj) + [T_est, p, conc],
                           {"blowup_rate_err": abs(p - 2.0), "steps": steps})
        return run


class Sweep:
    """`cli.run_scenario` sweeping the ground-state scenario over couplings."""

    name = "sweep"
    #: the couplings are drawn one in each of `count` equal strata of this
    #: interval, so every seed spreads its work over the whole range
    A_RANGE = (-0.2, -0.02)

    def __init__(self, seed: int, n: int = 512, count: int = 5, workers: int = 2,
                 workdir: str = "."):
        rng = np.random.default_rng(seed)
        edges = np.linspace(*self.A_RANGE, count + 1)
        self.couplings = [float(rng.uniform(lo, hi)) for lo, hi in zip(edges, edges[1:])]
        self.n, self.workers, self.workdir = n, workers, workdir
        self._runs = 0

    def config_text(self, out_dir: str) -> str:
        return "\n".join([
            "scenario = sweep", "sweep.scenario = ground-state", "model.d = 3",
            f"grid.n = {self.n}", "sweep.key = model.a",
            "sweep.values = " + ",".join(repr(a) for a in self.couplings),
            f"sweep.workers = {self.workers}", f"output.dir = {out_dir}"])

    def setup(self):
        # the discretisation every sub-run builds, at the base config's coupling
        cfg = hl.cli.parse_config(self.config_text("unused"))
        return _discretisation(3, cfg["model.a"], self.n, cfg["grid.r_max"])

    def ops(self, ctx):
        return [("sweep", len(self.couplings), self._sweep)]

    def _sweep(self, state):
        self._runs += 1
        out_dir = os.path.join(self.workdir, f"sweep-{os.getpid()}-{self._runs}")
        try:
            cfg = hl.cli.parse_config(self.config_text(out_dir))
            summary = hl.cli.run_scenario(cfg, out_dir)
            problems, arrays, residuals, iterations = [], [], [], 0
            for idx in range(len(self.couplings)):
                sub = os.path.join(out_dir, f"sweep-{idx:03d}")
                try:
                    with open(os.path.join(sub, "summary.json")) as fh:
                        s = json.load(fh)
                    if not s["pass"]:
                        raise ValueError(f"failed: {s.get('error', s.get('checks'))}")
                    with open(os.path.join(sub, "ground_state.txt"), "rb") as fh:
                        arrays.append(np.frombuffer(fh.read(), dtype=np.uint8))
                except (OSError, ValueError) as exc:
                    problems.append([f"sub-run {idx}: {exc}"])
                    continue
                tol = float(s["config"]["ground_state.residual_tol"])
                residuals.append(s["el_residual"])
                iterations += s["iterations"]
                arrays.append(np.array([s["m_gs"], s["el_residual"]]))
                problems.append([] if s["el_residual"] <= tol else
                                [f"sub-run {idx}: residual {s['el_residual']:.3e} > {tol:.0e}"])
            if not summary["pass"] and not any(problems):
                problems[0].append("sweep summary failed")
            return Outcome(problems, arrays,
                           {"gs_residual": max(residuals, default=math.nan),
                            "iterations": iterations})
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SubcriticalEvolution, Blowup, Sweep)}
