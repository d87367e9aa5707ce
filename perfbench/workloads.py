"""The four benchmark workloads: inputs from a seed, timed jobs, and checks.

Each workload is three functions:

* ``setup(seed, work, small)`` builds the inputs (configs, noises, seeds)
  from the workload seed; the seed reaches pairjump only through them;
* ``run(inp, tracer)`` is one round of jobs, the part that is timed;
* ``check(inp, out)`` returns the correctness checks of a round and the
  byte strings its output digest is made of. It runs untimed and untraced.

Every round of a run repeats the same inputs, so rounds must produce
identical digests. Jobs call pairjump through module attributes
(``models.simulate``, not a name bound at import) so that a tracer can wrap
them. ``small=True`` shrinks every shape for the benchmark's own tests.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from pairjump import circle, cli, diagnostics, invariant, kinetic, models, oracle

TWO_PI = 2.0 * math.pi


def derive_seed(seed: int, *path: int) -> int:
    """A 63-bit job seed from the workload seed and a job path."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(2, np.uint64)[0] >> 1)


def _check(name, measured, bound, passed):
    return {"name": name, "measured": float(measured), "bound": bound, "passed": bool(passed)}


def _wn_fourier(var: float, K: int, phase: float = 0.0) -> circle.FourierDensity:
    k = np.arange(-K, K + 1)
    return circle.FourierDensity(np.exp(-k**2 * var / 2 - 1j * k * phase))


# ---------------------------------------------------------------------------
# ensemble: in-process `pairjump simulate` at the A5/A6 shape


def _noise(name):
    """(CLI config, NoiseSpec) of a named noise."""
    if name == "uniform":
        return {"kind": "uniform"}, circle.UniformNoise()
    if name == "tab":
        spec = circle.TabulatedNoise(circle.WrappedNormalNoise(0.5).tabulate(64).values)
        return {"kind": "tabulated", "values": spec.values.tolist()}, spec
    var = {"wn": 0.5, "wn_narrow": 0.2}[name]
    return {"kind": "wrapped_normal", "param": var}, circle.WrappedNormalNoise(var)


ENSEMBLE_JOBS = (("cl_wn", "cl", "wn"), ("cl_uniform", "cl", "uniform"),
                 ("cl_tab", "cl", "tab"), ("bdg_wn", "bdg", "wn_narrow"))
INITIAL_VAR = 0.5


def ensemble_setup(seed, work, small=False):
    n, r, t_end, cps = (60, 6, 0.5, [0.25, 0.5]) if small else (2000, 100, 0.5, [0.25, 0.5])
    jobs = []
    for j, (name, model, noise) in enumerate(ENSEMBLE_JOBS):
        noise_cfg, spec = _noise(noise)
        cfg = {"model": model, "n_particles": n, "noise": noise_cfg,
               "initial": {"kind": "wrapped_normal", "param": INITIAL_VAR},
               "t_end": t_end, "checkpoints": cps, "replicas": r,
               "seed": derive_seed(seed, 1, j), "K": 16}
        d = Path(work) / "ensemble" / name
        d.mkdir(parents=True, exist_ok=True)
        (d / "config.json").write_text(json.dumps(cfg, sort_keys=True))
        jobs.append({"name": name, "model": model, "noise": spec, "cfg": cfg, "dir": d})
    return {"jobs": jobs, "reference": {}}


def ensemble_run(inp, tracer):
    codes = {}
    for job in inp["jobs"]:
        with tracer.span(f"job.{job['name']}", model=job["model"]):
            codes[job["name"]] = cli.main(
                ["simulate", "--config", str(job["dir"] / "config.json"),
                 "--out", str(job["dir"] / "out"), "--threads", "1"])
    return codes


def _kinetic_modes(job, times):
    # kinetic prediction of modes 0..2 at each checkpoint
    if job["model"] == "cl":
        return [kinetic.cl_evolve(_wn_fourier(INITIAL_VAR, 2), job["noise"], t).coeffs[2:]
                for t in times]
    grid = circle.WrappedNormalNoise(INITIAL_VAR).tabulate(256)
    return [circle.fourier_coeffs(kinetic.bdg_evolve(grid, job["noise"], t), 2).coeffs[2:]
            for t in times]


def ensemble_check(inp, codes):
    checks, parts = [], []
    for job in inp["jobs"]:
        name, out = job["name"], job["dir"] / "out"
        code = codes[name]
        checks.append(_check(f"{name}: exit code", code, "== 0", code == 0))
        snap = (out / "snapshots.jsonl").read_bytes()
        summary = (out / "summary.csv").read_bytes()
        parts += [snap, summary]
        cfg = job["cfg"]
        records = snap.count(b"\n") - 1
        expected = cfg["replicas"] * len(cfg["checkpoints"])
        checks.append(_check(f"{name}: snapshot records", records, f"== {expected}",
                             records == expected))
        rows = list(csv.DictReader(summary.decode().splitlines()[1:]))
        times = cfg["checkpoints"]
        ref = inp["reference"].get(name)
        if ref is None:
            ref = inp["reference"][name] = _kinetic_modes(job, times)
        for ti, t in enumerate(times):
            for k in (1, 2):
                row = next(r for r in rows if float(r["t"]) == t and int(r["k"]) == k)
                f1 = complex(float(row["re_f1"]), float(row["im_f1"]))
                z = abs(f1 - ref[ti][k]) / float(row["se_f1"])
                checks.append(_check(f"{name}: |z| of mode {k} at t={t:g} vs kinetic",
                                     z, "< 4", z < 4.0))
    return checks, parts


# ---------------------------------------------------------------------------
# chaos: the A4 pipeline with a 100-draw i.i.d. floor


def chaos_setup(seed, work, small=False):
    return {"sizes": (10, 20, 40) if small else (50, 200, 800),
            "replicas": 8 if small else 400, "draws": 5 if small else 100, "kmax": 16,
            "var": 0.5, "ens_seed": derive_seed(seed, 2), "floor_seed": derive_seed(seed, 3)}


def chaos_run(inp, tracer):
    g = circle.WrappedNormalNoise(inp["var"])
    model = models.ModelSpec("cl", g)
    kmax = inp["kmax"]
    with tracer.span("job.reference_density", model="cl"):
        f_ref = kinetic.cl_evolve(_wn_fourier(inp["var"], kmax), g, 1.0)
    out = {"f_ref": f_ref, "D": {}, "snapshots": {}}
    for n in inp["sizes"]:
        with tracer.span(f"job.ensemble_N{n}", model="cl"):
            ens = models.simulate_ensemble(model, n, 1.0, [1.0], inp["replicas"],
                                           inp["ens_seed"], initial=g, workers=1)
            summary = diagnostics.summarize(ens, kmax=kmax)
            out["D"][n] = diagnostics.chaos_distance(summary, f_ref)
        out["snapshots"][n] = ens.snapshots
    with tracer.span("job.iid_floor", model="cl"):
        out["floor"] = diagnostics.iid_chaos_samples(
            f_ref, inp["sizes"][-1], inp["replicas"], kmax, inp["draws"],
            np.random.default_rng(inp["floor_seed"]))
    return out


def _chaos_distance_direct(snapshots, f_ref, kmax):
    # the pair statistic and D written out independently of diagnostics
    R, _, N = snapshots.shape
    k = np.arange(1, kmax + 1)
    S = np.exp(-1j * snapshots[:, -1, :, None] * k).sum(axis=1)
    C = ((np.abs(S) ** 2 - N) / (N * (N - 1))).mean(axis=0)
    ref = np.abs(f_ref.coeffs[f_ref.K + 1:f_ref.K + kmax + 1]) ** 2
    return float(2.0 * np.sum((C - ref) ** 2))


def chaos_check(inp, out):
    checks, parts = [], []
    for n in inp["sizes"]:
        direct = _chaos_distance_direct(out["snapshots"][n], out["f_ref"], inp["kmax"])
        rel = abs(out["D"][n] - direct) / direct
        checks.append(_check(f"D({n}) matches a direct evaluation", rel, "< 1e-9", rel < 1e-9))
        parts += [out["snapshots"][n].tobytes(), np.float64(out["D"][n]).tobytes()]
    floor = out["floor"]
    ok = floor.shape == (inp["draws"],) and bool(np.all(np.isfinite(floor) & (floor > 0)))
    checks.append(_check("i.i.d. floor draws are finite and positive", ok, "== 1", ok))
    parts.append(floor.tobytes())
    return checks, parts


def chaos_a4_verdicts(inp, out):
    """A4's bounds on this seed's data; reported, not gated (see README)."""
    D, sizes = out["D"], inp["sizes"]
    p99 = float(np.quantile(out["floor"], 0.99))
    return [
        _check(f"D({sizes[0]}) > D({sizes[1]})", D[sizes[0]] / D[sizes[1]], "> 1",
               D[sizes[0]] > D[sizes[1]]),
        _check(f"D({sizes[1]}) > D({sizes[2]})", D[sizes[1]] / D[sizes[2]], "> 1",
               D[sizes[1]] > D[sizes[2]]),
        _check(f"D({sizes[2]}) below the floor's 99th percentile", D[sizes[2]],
               f"< {p99:.3e}", D[sizes[2]] < p99),
    ]


# ---------------------------------------------------------------------------
# trajectory: one long replica each, scalar path and event-log replay


def trajectory_setup(seed, work, small=False):
    return {"kac_n": 10 if small else 50, "kac_t": 200.0 if small else 21_000.0,
            "kac_min_events": 1_000 if small else 1_000_000,
            "cl_n": 20 if small else 200, "cl_t": 100.0 if small else 2_500.0,
            "kac_seed": derive_seed(seed, 4), "cl_seed": derive_seed(seed, 5)}


def trajectory_run(inp, tracer):
    out = {}
    kac = models.ModelSpec("kac", circle.UniformNoise())
    with tracer.span("job.kac_energy", model="kac"):
        rng = models.replica_rng(inp["kac_seed"], 0)
        v0 = models.sample_kac_state(inp["kac_n"], rng)
        out["kac"] = models.simulate(kac, v0, inp["kac_t"], rng)
    cl = models.ModelSpec("cl", circle.WrappedNormalNoise(0.5))
    with tracer.span("job.cl_replay", model="cl"):
        rng = models.replica_rng(inp["cl_seed"], 0)
        x0 = models.sample_initial_chaotic(circle.WrappedNormalNoise(0.5), inp["cl_n"], rng)
        out["cl"] = models.simulate(cl, x0, inp["cl_t"], rng, record_events=True)
        out["replayed"] = models.replay(cl, x0, out["cl"].events)
    return out


def trajectory_check(inp, out):
    kac, cl = out["kac"], out["cl"]
    drift = abs(float(np.mean(kac.final_state**2)) - 1.0)
    same = out["replayed"].tobytes() == cl.final_state.tobytes()
    checks = [
        _check(f"kac energy drift over {kac.n_events} events", drift, "< 1e-12", drift < 1e-12),
        _check("kac event count", kac.n_events, f">= {inp['kac_min_events']}",
               kac.n_events >= inp["kac_min_events"]),
        _check("cl event log is complete", not cl.events_truncated, "== 1",
               not cl.events_truncated),
        _check(f"replay of {cl.n_events} events equals final_state bit for bit",
               same, "== 1", same),
    ]
    parts = [kac.final_state.tobytes(), cl.final_state.tobytes(), out["replayed"].tobytes()]
    return checks, parts


# ---------------------------------------------------------------------------
# reference: exact oracle, kinetic solvers and closed forms, no particle events


def reference_setup(seed, work, small=False):
    shift = int(derive_seed(seed, 6) % 256)  # rotation of the initial data, in 1/256 turns
    return {"oracle_sizes": ((3, 8), (2, 8)) if small else ((3, 16), (4, 8)),
            "grids": (32, 64, 128) if small else (256, 512, 1024),
            "series_sizes": (3, 10) if small else (3, 10, 100),
            "scaling_sizes": (10**3, 10**4), "shift": shift}


def _tabulated_wn(var, M):
    return circle.TabulatedNoise(circle.WrappedNormalNoise(var).tabulate(M).values)


def reference_run(inp, tracer):
    out = {"oracle": {}, "bdg": {}, "series": {}, "closed": {}}
    for kind in ("cl", "bdg"):
        for n, m in inp["oracle_sizes"]:
            with tracer.span(f"job.oracle_{kind}_{n}x{m}", model=kind):
                g = _tabulated_wn(0.5, m)
                tm = oracle.build_transition(models.ModelSpec(kind, g), n, m)
                st = oracle.stationary(tm)
                out["oracle"][kind, n, m] = (g, tm, st, oracle.marginal(st, [0]),
                                             oracle.marginal(st, [0, 1]))
    g = circle.WrappedNormalNoise(0.2)
    cfg = kinetic.KineticConfig(dt=0.02)
    for grid in inp["grids"]:
        with tracer.span(f"job.bdg_evolve_M{grid}", model="bdg"):
            f0 = circle.GridDensity(np.roll(circle.WrappedNormalNoise(0.5).tabulate(grid).values,
                                            inp["shift"] * grid // 256))
            out["bdg"][grid] = kinetic.bdg_evolve(f0, g, 0.5, cfg)
            if grid == inp["grids"][0]:
                out["bdg_half"] = kinetic.bdg_evolve(f0, g, 0.5,
                                                     kinetic.KineticConfig(dt=cfg.dt / 2))
    with tracer.span("job.cl_evolve", model="cl"):
        phase = inp["shift"] * TWO_PI / 256
        out["cl"] = kinetic.cl_evolve(_wn_fourier(0.5, 64, phase), g, 3.0)
    with tracer.span("job.invariant"):
        for n in inp["series_sizes"]:
            for var in (0.1, 1.0):
                wn = circle.WrappedNormalNoise(var)
                out["series"][n, var] = invariant.pair_correlation_series(wn, n, 64, tol=1e-10)
                out["closed"][n, var] = invariant.pair_correlation_closed(wn, n, 64)
        for n in inp["scaling_sizes"]:
            out["closed"][n, "heat"] = invariant.pair_correlation_closed(
                invariant.heat_kernel_family(n), n, 4)
    return out


def reference_check(inp, out):
    checks, parts = [], []
    for (kind, n, m), (g, tm, st, one, pair) in out["oracle"].items():
        dev = float(np.max(np.abs(tm.P @ np.ones(tm.n_states) - 1.0)))
        checks.append(_check(f"row-sum deviation, {kind} at N={n}, M={m}", dev, "< 1e-12",
                             dev < 1e-12))
        parts += [st.weights.tobytes(), one.tobytes(), pair.tobytes()]
        if kind == "cl":
            kmax = min(4, m // 2 - 1)
            prof = oracle.pair_difference_profile(pair)
            theta = np.arange(m) * (TWO_PI / m)
            emp = (np.exp(-1j * np.outer(np.arange(kmax + 1), theta)) @ prof).real
            closed = invariant.pair_correlation_closed(g, n, kmax).fhat
            rel = float(np.max(np.abs(emp[1:] - closed[1:]) / np.abs(closed[1:])))
            checks.append(_check(f"cl pair correlation vs closed form at N={n}, M={m}",
                                 rel, "< 0.01", rel < 0.01))
    for grid, sol in out["bdg"].items():
        drift = abs(sol.masses.sum() - 1.0)
        checks.append(_check(f"bdg_evolve mass drift at M={grid}", drift, "< 1e-12",
                             drift < 1e-12))
        parts.append(sol.masses.tobytes())
    conv = float(np.max(np.abs(out["bdg"][inp["grids"][0]].masses - out["bdg_half"].masses)))
    checks.append(_check("bdg_evolve self-convergence under dt halving", conv, "< 1e-06",
                         conv < 1e-6))
    parts.append(out["bdg_half"].masses.tobytes())
    m_cl = abs(out["cl"].coeff(0) - 1.0)
    checks.append(_check("cl_evolve mode-0 drift", m_cl, "< 1e-12", m_cl < 1e-12))
    parts.append(out["cl"].coeffs.tobytes())
    for key, (prof, _bound) in out["series"].items():
        dev = float(np.max(np.abs(prof.fhat - out["closed"][key].fhat)))
        checks.append(_check(f"series vs closed form at N={key[0]}, var={key[1]:g}", dev,
                             "< 1e-10", dev < 1e-10))
        parts.append(prof.fhat.tobytes())
    parts += [p.fhat.tobytes() for p in out["closed"].values()]
    return checks, parts


WORKLOADS = {
    "ensemble": (ensemble_setup, ensemble_run, ensemble_check),
    "chaos": (chaos_setup, chaos_run, chaos_check),
    "trajectory": (trajectory_setup, trajectory_run, trajectory_check),
    "reference": (reference_setup, reference_run, reference_check),
}


def digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()
