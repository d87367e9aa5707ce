"""What each before/after comparison measures: one entry per ``BENCH_<topic>.json``.

A topic's ``layers(src)`` imports the pairjump under ``src`` and returns a flat
dict of figures: numbers (``_per_s`` in the name: higher is better, else lower)
or strings such as digests. ``outputs(src, npz)``, where a topic has one, saves
named arrays that ``bench/compare.py`` diffs between the sides.
"""

from __future__ import annotations

import hashlib
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np


def _median_time(fn, runs: int) -> float:
    fn()  # warm-up
    times = []
    for _ in range(runs):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return float(np.median(times))


# ---------------------------------------------------------------------------
# scalar: the single-trajectory path, ``simulate`` per model and noise (events
# per wall second, no event log) and ``replay`` over a recorded cl log

# (tag, model kind, noise, N, t_end): about 200k events each
SIMULATE_CASES = (
    ("kac_uniform", "kac", ("UniformNoise",), 50, 4000.0),
    ("cl_wn", "cl", ("WrappedNormalNoise", 0.5), 200, 1000.0),
    ("cl_uniform", "cl", ("UniformNoise",), 200, 1000.0),
    ("cl_tab", "cl", ("TabulatedNoise", 64), 200, 1000.0),
    ("bdg_wn", "bdg", ("WrappedNormalNoise", 0.2), 200, 1000.0),
)
REPLAY_CASE = ("cl", 200, 1000.0)


def _noise(circle, spec):
    name, *args = spec
    if name == "TabulatedNoise":
        return circle.TabulatedNoise(circle.WrappedNormalNoise(0.5).tabulate(args[0]).values)
    return getattr(circle, name)(*args)


def _simulate_case(circle, models, k, tag, kind, noise, n, t_end, record_events=False):
    """Case k of SIMULATE_CASES from its own start, drawn on its replica stream."""
    model = models.ModelSpec(kind, _noise(circle, noise))
    rng = models.replica_rng(2026, k)
    x0 = models.sample_kac_state(n, rng) if kind == "kac" else rng.random(n) * circle.TWO_PI
    return models.simulate(model, x0, t_end, rng, record_events=record_events)


def scalar_layers(src: Path) -> dict:
    """Event rates of simulate (per case) and replay for the pairjump in src."""
    sys.path.insert(0, str(src))
    from pairjump import circle, models

    rates = {}
    for k, case in enumerate(SIMULATE_CASES):
        t = time.perf_counter()
        res = _simulate_case(circle, models, k, *case)
        rates[f"simulate_events_per_s.{case[0]}"] = res.n_events / (time.perf_counter() - t)

    kind, n, t_end = REPLAY_CASE
    model = models.ModelSpec(kind, circle.WrappedNormalNoise(0.5))
    rng = models.replica_rng(2026, 99)
    x0 = rng.random(n) * circle.TWO_PI
    res = models.simulate(model, x0, t_end, rng, record_events=True)
    t = time.perf_counter()
    final = models.replay(model, x0, res.events)
    rates["replay_events_per_s.cl_wn"] = len(res.events) / (time.perf_counter() - t)
    if not np.array_equal(final, res.final_state):
        raise RuntimeError("replay does not reproduce simulate's final state")
    return rates


# ---------------------------------------------------------------------------
# phasors: the mode statistics' exp(-i theta). The per-draw figures time
# ``summarize``'s kernel ``_mode_stats`` on an A4-shaped array of angles; the
# A4 floor, which forms its phasors from grid cells, is timed whole, with the
# minor page faults it takes (its speed follows how long its block temporaries
# live); then ``summarize`` at perfbench's ``ensemble`` shape.

DRAW_SHAPE = (400, 1, 800)  # A4: 400 replicas of N = 800, one checkpoint
ENSEMBLE_SHAPE = (100, 2, 2000)  # perfbench ensemble: R = 100, 2 checkpoints, N = 2000
KMAX = 16
FLOOR_DRAWS = 300
TIMED_CALLS = 9


def _setup(src: Path):
    """A4's reference law, the floor's grid of it, and an ensemble-shaped result."""
    sys.path.insert(0, str(src))
    from pairjump import circle, diagnostics, kinetic, models, verify

    g = circle.WrappedNormalNoise(0.5)
    f_ref = kinetic.cl_evolve(circle.FourierDensity(g.fourier(np.arange(-KMAX, KMAX + 1))), g, 1.0)
    grid = circle.density_from_coeffs(f_ref, diagnostics.FLOOR_GRID)
    ensemble = models.EnsembleResult(
        times=np.array([0.25, 0.5]),
        snapshots=np.random.default_rng(7).uniform(0.0, circle.TWO_PI, ENSEMBLE_SHAPE),
        n_events=np.zeros(ENSEMBLE_SHAPE[0], dtype=np.int64))
    return circle, diagnostics, verify, f_ref, grid, ensemble


def _floor(diagnostics, verify, f_ref):
    return diagnostics.iid_chaos_samples(f_ref, DRAW_SHAPE[2], DRAW_SHAPE[0], KMAX, FLOOR_DRAWS,
                                         np.random.default_rng([verify.MASTER_SEED, 4]))


def phasors_layers(src: Path) -> dict:
    """Per-draw mode statistics, the whole floor (seconds and minor page faults) and
    summarize for the pairjump in src."""
    circle, diagnostics, verify, f_ref, grid, ensemble = _setup(src)
    rng = np.random.default_rng(2026)
    diagnostics._mode_stats(circle.sample_grid_density(grid, rng, DRAW_SHAPE), KMAX)  # warm-up
    modes = []
    for _ in range(TIMED_CALLS):
        x = circle.sample_grid_density(grid, rng, DRAW_SHAPE)
        t = time.perf_counter()
        diagnostics._mode_stats(x, KMAX)
        modes.append(time.perf_counter() - t)

    minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t = time.perf_counter()
    _floor(diagnostics, verify, f_ref)
    floor_s = time.perf_counter() - t
    minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt

    summ = _median_time(lambda: diagnostics.summarize(ensemble, kmax=KMAX), TIMED_CALLS)
    return {"mode_stats_ms.a4_draw": 1e3 * float(np.median(modes)),
            "floor_s.a4": floor_s,
            "floor_minflt.a4": minflt,
            "summarize_ms.ensemble": 1e3 * summ}


def phasors_outputs(src: Path, npz: Path) -> None:
    """Phasors of fixed angles, f1 and C at both shapes, and the floor values."""
    circle, diagnostics, verify, f_ref, grid, ensemble = _setup(src)
    h = circle.TWO_PI / 1024
    theta = np.concatenate((np.random.default_rng(1).uniform(0.0, circle.TWO_PI, 1 << 16),
                            np.arange(1024) * h, (np.arange(1024) + 0.5) * h))
    phasors = diagnostics._phasors(theta, np.empty(theta.shape, dtype=complex))
    a, b = diagnostics._mode_stats(
        circle.sample_grid_density(grid, np.random.default_rng(2026), DRAW_SHAPE), KMAX)
    s = diagnostics.summarize(ensemble, kmax=KMAX)
    np.savez(npz, phasor=phasors, **{"f1.a4_draw": a[:, 0, 1:], "C.a4_draw": b[:, 0, 1:],
                                     "f1.ensemble": s.f1, "C.ensemble": s.pair,
                                     "D.floor": _floor(diagnostics, verify, f_ref)})


# ---------------------------------------------------------------------------
# deposition: the midpoint (bdg) kinetic gain ``bdg_gain``, one right-hand
# side's deposition and noise convolution, per call at each M, and
# ``bdg_evolve`` at M = 1024 to t = 0.5, the largest solve of ``reference``.

GRIDS = (256, 512, 1024)
DEPOSITION_CALLS = 25
EVOLVE_M, EVOLVE_T, EVOLVE_RUNS = 1024, 0.5, 3


def _evolve(circle, kinetic):
    f0 = circle.WrappedNormalNoise(0.5).tabulate(EVOLVE_M)
    return kinetic.bdg_evolve(f0, circle.WrappedNormalNoise(0.2), EVOLVE_T,
                              kinetic.KineticConfig(dt=0.02))


def deposition_layers(src: Path) -> dict:
    """Per-call gain times and one large bdg solve for the pairjump in src."""
    sys.path.insert(0, str(src))
    from pairjump import circle, kinetic

    times = {}
    for M in GRIDS:
        f = circle.WrappedNormalNoise(0.5).tabulate(M)
        # a noise tabulated on the grid, so that tabulating a wrapped normal on
        # each call (about 0.3 ms) does not swamp the deposition
        g = circle.TabulatedNoise(circle.WrappedNormalNoise(0.2).tabulate(M).values)
        times[f"gain_ms.M{M}"] = 1e3 * _median_time(lambda: kinetic.bdg_gain(f, g),
                                                     DEPOSITION_CALLS)
    times[f"bdg_evolve_s.M{EVOLVE_M}"] = _median_time(lambda: _evolve(circle, kinetic),
                                                       EVOLVE_RUNS)
    return times


def deposition_outputs(src: Path, npz: Path) -> None:
    """The gain of a random density at each M, and the large solve's masses."""
    sys.path.insert(0, str(src))
    from pairjump import circle, kinetic

    out = {}
    for M in GRIDS:
        f = circle.GridDensity.from_unnormalized(np.random.default_rng(M).random(M) ** 3)
        out[f"gain.M{M}"] = kinetic.bdg_gain(f, circle.WrappedNormalNoise(0.2)).masses
    out[f"bdg_evolve.M{EVOLVE_M}"] = _evolve(circle, kinetic).masses
    np.savez(npz, **out)


# ---------------------------------------------------------------------------
# snapshots: writing ``snapshots.jsonl`` in ``pairjump simulate`` on one job of
# perfbench's ``ensemble`` shape, timed from ``simulate_ensemble`` returning to
# ``summarize`` being called; the file must parse back to the engine's doubles.

JOB = {"model": "cl", "n_particles": 2000, "noise": {"kind": "wrapped_normal", "param": 0.5},
       "initial": {"kind": "wrapped_normal", "param": 0.5}, "t_end": 0.5,
       "checkpoints": [0.25, 0.5], "replicas": 100, "seed": 20261018}
TIMED_RUNS = 3


def snapshots_layers(src: Path) -> dict:
    """Snapshot-write time and bytes of one ensemble-shaped job for the pairjump in src."""
    sys.path.insert(0, str(src))
    from pairjump import cli

    marks = {}
    engine, summarize = cli.simulate_ensemble, cli.summarize

    def timed_engine(*args, **kwargs):
        marks["result"] = engine(*args, **kwargs)
        marks["engine_done"] = time.perf_counter()
        return marks["result"]

    def timed_summarize(*args, **kwargs):
        marks["summarize_called"] = time.perf_counter()
        return summarize(*args, **kwargs)

    cli.simulate_ensemble, cli.summarize = timed_engine, timed_summarize
    writes = []
    with tempfile.TemporaryDirectory() as work:
        cfg = Path(work) / "config.json"
        cfg.write_text(json.dumps(JOB))
        out = Path(work) / "out"
        for k in range(1 + TIMED_RUNS):
            if cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--threads", "1"]) != 0:
                raise RuntimeError(f"pairjump simulate failed in {src}")
            if k:
                writes.append(marks["summarize_called"] - marks["engine_done"])
        blob = (out / "snapshots.jsonl").read_bytes()
    snapshots = marks["result"].snapshots
    parsed = np.array([json.loads(line)["state"] for line in blob.splitlines()[1:]])
    parsed = parsed.reshape(snapshots.shape)
    if not np.array_equal(parsed, snapshots):
        raise RuntimeError(f"snapshots.jsonl does not parse back to the engine's doubles in {src}")
    return {"write_snapshots_s": float(np.median(writes)),
            "snapshot_bytes": len(blob),
            "parsed_sha256": hashlib.sha256(parsed.tobytes()).hexdigest()}


# ---------------------------------------------------------------------------
# oracle: ``build_transition`` and ``stationary`` at perfbench's ``reference``
# cases, each on a fresh matrix as ``reference`` runs them (a warm-up round
# first), the state count, the peak resident memory of a fresh process per
# case, and the one- and two-particle stationary marginals, which stay
# comparable across changes of the state space

ORACLE_CASES = tuple((kind, n, m) for kind in ("cl", "bdg") for n, m in ((3, 16), (4, 8)))
ORACLE_RUNS = 5


def _oracle_solve(circle, models, oracle, kind, n, m) -> tuple:
    """Build and stationary wall seconds, the iteration count, the state count,
    nnz and the stationary law."""
    g = circle.TabulatedNoise(circle.WrappedNormalNoise(0.5).tabulate(m).values)
    t0 = time.perf_counter()
    tm = oracle.build_transition(models.ModelSpec(kind, g), n, m)
    t1 = time.perf_counter()
    stats = {}
    law = oracle.stationary(tm, stats=stats)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, stats["power_iterations"], tm.n_states, tm.P.nnz, law


ORACLE_PROBE = """
import json, sys
sys.path.insert(1, sys.argv[1])
import topics
print(json.dumps(topics.oracle_case(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))))
"""


def oracle_case(kind: str, n: int, m: int) -> dict:
    """One case's median build and stationary times, iterations, states and nnz,
    and the peak resident memory of the process, which ``ORACLE_PROBE`` starts."""
    from pairjump import circle, models, oracle

    runs = [_oracle_solve(circle, models, oracle, kind, n, m) for _ in range(1 + ORACLE_RUNS)]
    build, solve, iterations, states, nnz, _ = zip(*runs[1:])
    tag = f"{kind}_{n}x{m}"
    return {f"build_s.{tag}": float(np.median(build)),
            f"stationary_s.{tag}": float(np.median(solve)),
            f"power_iterations.{tag}": iterations[0], f"states.{tag}": states[0],
            f"nnz.{tag}": nnz[0],
            f"ru_maxrss_mb.{tag}": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def oracle_layers(src: Path) -> dict:
    """``oracle_case`` for each case and the pairjump in src, each in a fresh process."""
    figures = {}
    for kind, n, m in ORACLE_CASES:
        figures.update(json.loads(_fresh(src, ORACLE_PROBE, str(Path(__file__).parent),
                                         kind, str(n), str(m))[1]))
    return figures


def oracle_outputs(src: Path, npz: Path) -> None:
    """The one- and two-particle stationary marginals of each case."""
    sys.path.insert(0, str(src))
    from pairjump import circle, models, oracle

    out = {}
    for kind, n, m in ORACLE_CASES:
        law = _oracle_solve(circle, models, oracle, kind, n, m)[-1]
        out[f"marginal_0.{kind}_{n}x{m}"] = oracle.marginal(law, [0])
        out[f"marginal_01.{kind}_{n}x{m}"] = oracle.marginal(law, [0, 1])
    np.savez(npz, **out)


# ---------------------------------------------------------------------------
# startup: what a fresh ``pairjump`` process pays before it computes anything.
# Each figure comes from its own new interpreter, one per repeat: the import
# of ``pairjump`` and of ``pairjump.cli`` (seconds, ``ru_maxrss`` after it,
# scipy modules then loaded), and a whole small ``pairjump simulate`` process
# run through ``cli.main``, timed from outside from start to exit.

IMPORT_PROBE = """
import json, resource, sys, time
t = time.perf_counter()
import {module}
t = time.perf_counter() - t
print(json.dumps([t, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  sum(m == "scipy" or m.startswith("scipy.") for m in sys.modules)]))
"""
SIMULATE_PROBE = """
import sys
from pairjump import cli
code = cli.main(sys.argv[1:])
print(sum(m == "scipy" or m.startswith("scipy.") for m in sys.modules))
sys.exit(code)
"""
SMALL_JOB = {"model": "cl", "n_particles": 50, "noise": {"kind": "wrapped_normal", "param": 0.5},
             "initial": {"kind": "wrapped_normal", "param": 0.5}, "t_end": 1.0,
             "checkpoints": [0.5, 1.0], "replicas": 4, "seed": 20261019}


def _fresh(src: Path, code: str, *args) -> tuple:
    """Wall seconds and last stdout line of ``python -c code args`` run in src."""
    t = time.perf_counter()  # in src, the script's first path entry finds src's pairjump
    out = subprocess.check_output([sys.executable, "-c", code, *args], cwd=src, text=True)
    return time.perf_counter() - t, out.splitlines()[-1]


def startup_layers(src: Path) -> dict:
    """Each start-up figure for src, from one fresh process per figure."""
    figures = {}
    for tag, module in (("pairjump", "pairjump"), ("cli", "pairjump.cli")):
        import_s, rss_mb, scipy_modules = json.loads(
            _fresh(src, IMPORT_PROBE.format(module=module))[1])
        figures.update({f"import_s.{tag}": import_s, f"import_rss_mb.{tag}": rss_mb,
                        f"scipy_modules.{tag}": scipy_modules})
    with tempfile.TemporaryDirectory() as work:
        cfg = Path(work) / "config.json"
        cfg.write_text(json.dumps(SMALL_JOB))
        wall, scipy_modules = _fresh(src, SIMULATE_PROBE, "simulate", "--config", str(cfg),
                                     "--out", str(Path(work) / "out"), "--threads", "1")
        blob = (Path(work) / "out" / "snapshots.jsonl").read_bytes()
    figures.update({"simulate_process_s.small": wall, "scipy_modules.simulate": int(scipy_modules),
                    "snapshots_sha256.small": hashlib.sha256(blob).hexdigest()})
    return figures


# ---------------------------------------------------------------------------
# draws: what both particle engines pay per block of EVENT_BLOCK events outside
# the per-event loop. The pair decode and the angle wrap are timed per block,
# each call on a fresh random array (a repeated array lets the branch predictor
# learn a binary search's path); ``_draw_block`` per block for each scalar
# case; then ``simulate`` per scalar case (events per second) and
# ``simulate_ensemble`` at perfbench's ``ensemble`` shape (its four jobs) and at
# A4's N = 800. Outputs are the end states, event logs and snapshots.

DECODE_NS = (50, 200, 2000)
BLOCK_CALLS, BLOCK_ROUNDS = 500, 5
ENGINE_RUNS = 3
# (tag, model kind, noise, N, R, t_end, checkpoints), each started from WN(0.5)
ENSEMBLE_CASES = (
    *((f"perfbench_{tag}", kind, noise, 2000, 100, 0.5, (0.25, 0.5))
      for tag, kind, noise in (("cl_wn", "cl", ("WrappedNormalNoise", 0.5)),
                               ("cl_uniform", "cl", ("UniformNoise",)),
                               ("cl_tab", "cl", ("TabulatedNoise", 64)),
                               ("bdg_wn", "bdg", ("WrappedNormalNoise", 0.2)))),
    ("a4_n800", "cl", ("WrappedNormalNoise", 0.5), 800, 400, 1.0, (1.0,)),
)


def _decoder(models):
    """The pair decode of src's ``_draw_block``: closed form where the module has one,
    else the binary search over the row offsets that it replaced."""
    decode = getattr(models, "_decode_pairs", None)
    if decode is not None:
        return decode

    def searchsorted(m, offsets):
        i = np.searchsorted(offsets, m, side="right") - 1
        return i, m - offsets[i] + i + 1
    return searchsorted


def _per_block_us(fn, inputs) -> float:
    """Median over rounds of the mean microseconds of fn over each round's fresh inputs."""
    fn(inputs[0][0])  # warm-up
    rounds = []
    for batch in inputs:
        t = time.perf_counter()
        for x in batch:
            fn(x)
        rounds.append((time.perf_counter() - t) / len(batch))
    return 1e6 * float(np.median(rounds))


def _ensemble_case(circle, models, k, tag, kind, noise, n, r, t_end, cps):
    return models.simulate_ensemble(models.ModelSpec(kind, _noise(circle, noise)), n, t_end,
                                    cps, r, 2026 + k, initial=circle.WrappedNormalNoise(0.5))


def draws_layers(src: Path) -> dict:
    """Per-block decode, wrap and draw times, and both engines' speed, for the pairjump in src."""
    sys.path.insert(0, str(src))
    from pairjump import circle, models

    B = models.EVENT_BLOCK
    rng = np.random.default_rng(2026)
    figures = {}
    decode = _decoder(models)
    for n in DECODE_NS:
        offsets = models._pair_offsets(n)
        keys = rng.integers(n * (n - 1) // 2, size=(BLOCK_ROUNDS, BLOCK_CALLS, B))
        figures[f"decode_us.N{n}"] = _per_block_us(lambda m: decode(m, offsets), keys)
    angles = rng.normal(0.0, np.sqrt(0.5), (BLOCK_ROUNDS, BLOCK_CALLS, B))
    figures["wrap_us.wn05"] = _per_block_us(circle.wrap_angle, angles)
    for k, (tag, kind, noise, n, _) in enumerate(SIMULATE_CASES):
        model = models.ModelSpec(kind, _noise(circle, noise))
        offsets, block_rng = models._pair_offsets(n), models.replica_rng(2026, k)
        figures[f"draw_block_us.{tag}"] = _per_block_us(
            lambda _: models._draw_block(model, offsets, n * (n - 1) // 2, block_rng),
            [range(BLOCK_CALLS)] * BLOCK_ROUNDS)

    for k, case in enumerate(SIMULATE_CASES):
        n_events = _simulate_case(circle, models, k, *case).n_events
        figures[f"simulate_events_per_s.{case[0]}"] = n_events / _median_time(
            lambda: _simulate_case(circle, models, k, *case), ENGINE_RUNS)
    ensemble_s = {case[0]: _median_time(lambda: _ensemble_case(circle, models, k, *case),
                                        ENGINE_RUNS)
                  for k, case in enumerate(ENSEMBLE_CASES)}
    figures["ensemble_s.perfbench"] = sum(v for tag, v in ensemble_s.items()
                                          if tag.startswith("perfbench_"))
    figures["ensemble_s.a4_n800"] = ensemble_s["a4_n800"]
    return figures


def draws_outputs(src: Path, npz: Path) -> None:
    """End state and event log of each scalar case, and each ensemble's snapshots."""
    sys.path.insert(0, str(src))
    from pairjump import circle, models

    out = {}
    for k, case in enumerate(SIMULATE_CASES):
        res = _simulate_case(circle, models, k, *case, record_events=True)
        out[f"final.{case[0]}"] = res.final_state
        for col in ("time", "i", "j", "d1", "d2"):
            if getattr(res.events, col) is not None:
                out[f"log_{col}.{case[0]}"] = getattr(res.events, col)
    for k, case in enumerate(ENSEMBLE_CASES):
        ens = _ensemble_case(circle, models, k, *case)
        out[f"snapshots.{case[0]}"] = ens.snapshots
        out[f"n_events.{case[0]}"] = ens.n_events
    np.savez(npz, **out)


# topic: (layers, outputs or None)
TOPICS = {
    "scalar": (scalar_layers, None),
    "deposition": (deposition_layers, deposition_outputs),
    "phasors": (phasors_layers, phasors_outputs),
    "snapshots": (snapshots_layers, None),
    "oracle": (oracle_layers, oracle_outputs),
    "startup": (startup_layers, None),
    "draws": (draws_layers, draws_outputs),
}
