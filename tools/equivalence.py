"""Compare the Hartree kernels and ground states of two source trees of hartreelab.

    python tools/equivalence.py OLD_SRC NEW_SRC

Each tree (a directory holding the package `hartreelab`) runs every case of
CASES in its own subprocess with one BLAS thread, the two trees concurrently.
A case builds the grid, the transform plan and the kernel once, saves the
bilinear form S = w_i Kw_ij and the plan's modes Psi and nodes k, and
solves the ground state from the two start fields of STARTS,
r^{-rho} exp(-r^2/2) and r^{-rho} / cosh r, each passed as `init=`, with
default options otherwise.
At a = 0, rho = 0 and the kernel is the uncorrected build.

A case matches if
  - S is within 1e-13 of OLD's in max norm, relative to max |S|;
  - each solve raises GroundStateError in NEW exactly when it raises in OLD
    (the d = 3, a = 0 cases at n = 16 and 21, where the cells of the kernel's
    first and last stencil columns overlap, are too coarse to solve);
  - where both solve, `m_gs` is within 1e-12 relative, and the Euler-Lagrange
    residual within 1e-9 relative plus the two floors, the last relative |F|
    of each solve, plus the round-off floor eps max(k^2) of OLD's plan.
The residual is the scaling anomaly of the discrete functionals plus the
|F| the iteration left at its stop, and two solves that stop at different
iterates leave different |F| there.  A solve records the relative |F| of
each iterate as `residuals`, and `floor` reads the last.  The residual also
evaluates ||L_a Q|| / ||Q||, and L_a, with eigenvalues k_m^2, amplifies a
relative round-off eps in Q or in the modes up to max(k^2) times:
`la_floor` is that bound, 4.0e-12 at (3, -0.1, 512, 12).  Psi is shown, not
gated, so that a change of the plan is visible beside its effect on `m_gs`.

Prints per case the relative difference of S, whether the two S are
bit-identical (with the first 12 hex digits of each one's sha256), the
relative difference of Psi, whether Psi and k are both bit-identical (the
same bytes by sha256), OLD's `la_floor`, and for OLD and NEW the largest
entry and the mean diagonal of Psi^T W Psi - I (`orthonormality`; the mean
diagonal is the bias that the evolution's linear flow carries into the mass
at every step); per start `m_gs`, the residual, both floors, the
iterations, whether the solve is bit-identical
(the same bytes of Q by sha256, the same `m_gs` and residual, or the same
error) and the wall time of the solve in OLD and in NEW.  The last line
counts the matching cases and solves and the bit-identical S, plans (Psi
and k) and Q, with the worst relative S, Psi and `m_gs`, and the summed
solve wall time of NEW over that of OLD.  The times
are shown, not gated: the two trees run at once on one BLAS thread each, so
they share the machine.  Exits 0 if every case matches.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

# (d, a, n, r_max)
CASES = (
    [(3, 0.0, n, 12.0) for n in (16, 21, 256, 1024)]
    + [(3, a, 512, 12.0) for a in (0.0, -0.02, -0.05, -0.1, -0.15, -0.2, -0.235)]
    + [(3, -0.1, 128, 8.0), (3, -0.1, 256, 12.0), (3, -0.1, 256, 20.0),
       (3, -0.2, 256, 12.0), (3, -0.1, 1024, 12.0), (3, -0.2, 1024, 12.0),
       (3, -0.15, 1024, 16.0), (3, -0.235, 1024, 16.0)]
    + [(4, a, 256, 12.0) for a in (0.0, -0.25, -0.5, -0.75, -0.9, -0.99)]
    + [(4, -0.5, 128, 8.0), (4, -0.5, 512, 12.0), (4, -0.5, 1024, 12.0),
       (4, -0.99, 512, 20.0)]
    + [(5, a, 256, 12.0) for a in (0.0, -0.5, -1.0, -1.5, -2.0)]
    + [(5, -1.0, 512, 12.0), (5, -2.0, 512, 12.0)]
    + [(6, a, 256, 12.0) for a in (0.0, -1.0, -2.0, -2.5)]
    + [(6, -1.0, 512, 20.0)]
    + [(7, -3.0, 128, 8.0), (7, -3.0, 256, 12.0)]
)
STARTS = {"gaussian": lambda r, rho: r**(-rho) * np.exp(-r**2 / 2),
          "sech": lambda r, rho: r**(-rho) / np.cosh(r)}
S_TOL, M_TOL, RESIDUAL_TOL = 1e-13, 1e-12, 1e-9


def floor(res) -> float:
    """The last relative |F| of a solve."""
    return res.residuals[-1]


def la_floor(plan) -> float:
    """eps max(k^2): the most a relative round-off eps in Q or the modes can
    move the residual through ||L_a Q|| / ||Q||."""
    return float(np.finfo(float).eps * np.max(plan.k**2))


def orthonormality(plan) -> tuple[float, float]:
    """max |Psi^T W Psi - I| and the mean of its diagonal, W the grid's weights."""
    w = plan.grid.w
    D = (plan.Psi.T * w) @ plan.Psi - np.eye(len(w))
    return float(np.max(np.abs(D))), float(np.mean(np.diagonal(D)))


def same_bytes(*pairs) -> bool:
    """Whether each (old, new) pair of arrays has the same bytes, by sha256."""
    return all(_sha256(o) == _sha256(w) for o, w in pairs)


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def run_all(src: str, out: str) -> None:
    """Save S, Psi and k of each case to out/S<i>.npy, out/Psi<i>.npy and
    out/k<i>.npy and print one JSON line per case, with one entry per start."""
    sys.path.insert(0, src)
    import hartreelab as hl

    for k, (d, a, n, r_max) in enumerate(CASES):
        params = hl.make_params(d, a)
        grid = hl.build_grid(d, n, r_max)
        plan, km = hl.build_plan(params, grid), hl.build_kernel(grid, params)
        np.save(os.path.join(out, f"S{k}.npy"), grid.w[:, None] * km.Kw)
        np.save(os.path.join(out, f"Psi{k}.npy"), plan.Psi)
        np.save(os.path.join(out, f"k{k}.npy"), plan.k)
        row = {"case": [d, a, n, r_max], "la_floor": la_floor(plan),
               "orthonormality": orthonormality(plan)}
        for name, field in STARTS.items():
            start = time.perf_counter()
            try:
                res = hl.solve_ground_state(params, grid, plan, km,
                                            init=field(grid.r, params.rho))
                row[name] = dict(m_gs=res.m_gs, residual=res.residual,
                                 floor=floor(res), iterations=res.iterations,
                                 q_sha256=_sha256(res.Q))
            except hl.GroundStateError as exc:
                row[name] = {"error": str(exc)}
            row[name]["wall_s"] = time.perf_counter() - start
        print(json.dumps(row), flush=True)


def compare(ds: float, old: dict, new: dict) -> dict[str, str | None]:
    """Why S (relative difference ds) and each start's solve of one case do
    not match between the rows old and new; None for each part that does."""
    why = {"S": f"S off by {ds:.1e}" if ds > S_TOL else None}
    for name in STARTS:
        o, w = old[name], new[name]
        if "error" in o:
            why[name] = None if "error" in w else "old raises, new solves"
        elif "error" in w:
            why[name] = f"new raises: {w['error']}"
        else:
            dm = abs(w["m_gs"] - o["m_gs"]) / o["m_gs"]
            dr = abs(w["residual"] - o["residual"])
            ok = dm <= M_TOL and dr <= (RESIDUAL_TOL * o["residual"] + o["floor"] + w["floor"]
                                        + old["la_floor"])
            why[name] = None if ok else f"m_gs off by {dm:.1e}, residual by {dr:.1e}"
    return why


def _rel_diff(old: np.ndarray, new: np.ndarray) -> float:
    """Max-norm difference of new from old, relative to max |old|."""
    return float(np.max(np.abs(new - old)) / np.max(np.abs(old)))


def main(old_src: str, new_src: str) -> int:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        outs = [os.path.join(tmp, tag) for tag in ("old", "new")]
        procs = []
        for src, out in zip((old_src, new_src), outs):
            os.mkdir(out)
            procs.append(subprocess.Popen([sys.executable, __file__, "--run", src, out],
                                          env=env, stdout=subprocess.PIPE, text=True))
        old, new = ([json.loads(ln) for ln in p.communicate()[0].splitlines()]
                    for p in procs)
        if any(p.returncode for p in procs):
            print("a case process failed", file=sys.stderr)
            return 1
        cases_ok = solves_ok = s_same = plan_same = q_same = 0
        worst_s = worst_psi = worst_m = wall_old = wall_new = 0.0
        for k, (o, w) in enumerate(zip(old, new)):
            (S_old, S_new), (Psi_old, Psi_new), ks = (
                [np.load(os.path.join(out, f"{name}{k}.npy")) for out in outs]
                for name in ("S", "Psi", "k"))
            ds, dpsi = _rel_diff(S_old, S_new), _rel_diff(Psi_old, Psi_new)
            worst_s, worst_psi = max(worst_s, ds), max(worst_psi, dpsi)
            why = compare(ds, o, w)
            cases_ok += not any(why.values())
            sha = [_sha256(S)[:12] for S in (S_old, S_new)]
            s_same += sha[0] == sha[1]
            bits = f"bit-identical {sha[0]}" if sha[0] == sha[1] else f"{sha[0]} != {sha[1]}"
            plan_bits = same_bytes((Psi_old, Psi_new), ks)
            plan_same += plan_bits
            print(f"{tuple(o['case'])!s:<26} S d_rel {ds:.1e} ({bits})  Psi d_rel {dpsi:.1e}"
                  f" ({'Psi and k bit-identical' if plan_bits else 'Psi or k differs'})"
                  f"  la_floor {o['la_floor']:.1e}{'  MISMATCH' if why['S'] else ''}")
            (dmax_o, bias_o), (dmax_w, bias_w) = o["orthonormality"], w["orthonormality"]
            print(f"    Psi^T W Psi - I: max {dmax_o:.1e} -> {dmax_w:.1e}, "
                  f"mean diagonal {bias_o:+.1e} -> {bias_w:+.1e}")
            for name in STARTS:
                go, gw = o[name], w[name]
                same = all(go.get(key) == gw.get(key)
                           for key in ("q_sha256", "m_gs", "residual", "error"))
                q_same += same
                solves_ok += why[name] is None
                wall_old, wall_new = wall_old + go["wall_s"], wall_new + gw["wall_s"]
                wall = f"  wall {go['wall_s'] * 1e3:.1f} -> {gw['wall_s'] * 1e3:.1f} ms"
                if "error" in go or "error" in gw:
                    status = f"MISMATCH: {why[name]}" if why[name] else "both raise"
                else:
                    dm = abs(gw["m_gs"] - go["m_gs"]) / go["m_gs"]
                    worst_m = max(worst_m, dm)
                    status = (f"m_gs {go['m_gs']!r} d_rel {dm:.1e}  residual "
                              f"{go['residual']:.3e} d_abs "
                              f"{abs(gw['residual'] - go['residual']):.1e} floors "
                              f"{go['floor']:.1e}/{gw['floor']:.1e}  iterations "
                              f"{go['iterations']} -> {gw['iterations']}  "
                              f"{'Q bit-identical' if same else 'Q differs'}"
                              f"{'  MISMATCH' if why[name] else ''}")
                print(f"    {name:<8} {status}{wall}")
    n = len(old)
    print(f"{cases_ok} of {n} cases match ({solves_ok} of {2 * n} solves); S bit-identical "
          f"in {s_same} of {n}, Psi and k bit-identical in {plan_same} of {n}, Q in {q_same} "
          f"of {2 * n}; worst relative S {worst_s:.1e}, "
          f"Psi {worst_psi:.1e}, m_gs {worst_m:.1e}; solve wall time NEW/OLD "
          f"{wall_new / wall_old:.3f} ({wall_old:.2f} -> {wall_new:.2f} s)")
    return 0 if cases_ok == n else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        run_all(sys.argv[2], sys.argv[3])
    else:
        sys.exit(main(*sys.argv[1:3]))
