"""Before/after timings of the single-trajectory path: ``simulate`` and ``replay``.

Two checkouts of pairjump are compared, each used from its own ``src/`` (and,
for the end-to-end rows, its own ``perfbench/``):

    python3 bench/bench_scalar.py --parent ../parent --change . \\
        --repeats 5 --seeds 1 2 3 --workloads trajectory --out BENCH_scalar.json

Each repeat times, in one fresh process per side with the side that runs
first alternating, the scalar event rate of ``simulate`` per model and noise
(events / wall second, no event log) and the event rate of ``replay`` over a
recorded cl log. Then, for each seed and workload, it runs
``perfbench/run.py --workload W --seed S --seconds 24 --trace 0`` from each
checkout, again alternating which runs first, and keeps the end-to-end
metrics. The output holds every run, the median and quartiles of each side,
and the number of pairs the change won.

``--layers DIR`` is the per-process timer: it prints one JSON object of
event rates for the pairjump under ``DIR/src``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# (tag, model kind, noise, N, t_end): about 200k events each
SIMULATE_CASES = (
    ("kac_uniform", "kac", ("UniformNoise",), 50, 4000.0),
    ("cl_wn", "cl", ("WrappedNormalNoise", 0.5), 200, 1000.0),
    ("cl_uniform", "cl", ("UniformNoise",), 200, 1000.0),
    ("cl_tab", "cl", ("TabulatedNoise", 64), 200, 1000.0),
    ("bdg_wn", "bdg", ("WrappedNormalNoise", 0.2), 200, 1000.0),
)
REPLAY_CASE = ("cl", 200, 1000.0)
E2E_METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
LOWER_IS_BETTER = set(E2E_METRICS)


def _noise(circle, spec):
    name, *args = spec
    if name == "TabulatedNoise":
        return circle.TabulatedNoise(circle.WrappedNormalNoise(0.5).tabulate(args[0]).values)
    return getattr(circle, name)(*args)


def layer_rates(src: Path) -> dict:
    """Event rates of simulate (per case) and replay for the pairjump in src."""
    sys.path.insert(0, str(src))
    from pairjump import circle, models

    rates = {}
    for k, (tag, kind, noise, n, t_end) in enumerate(SIMULATE_CASES):
        model = models.ModelSpec(kind, _noise(circle, noise))
        rng = models.replica_rng(2026, k)
        if kind == "kac":
            x0 = models.sample_kac_state(n, rng)
        else:
            x0 = rng.random(n) * circle.TWO_PI
        t = time.perf_counter()
        res = models.simulate(model, x0, t_end, rng)
        rates[f"simulate_events_per_s.{tag}"] = res.n_events / (time.perf_counter() - t)

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


def _run(cmd, cwd) -> str:
    out = subprocess.run(cmd, cwd=cwd, check=True, capture_output=True, text=True)
    return out.stdout


def _layers(root: Path) -> dict:
    out = _run([sys.executable, str(Path(__file__).resolve()), "--layers", str(root)], root)
    return json.loads(out.splitlines()[-1])


def _perfbench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    out = _run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"], root)
    line = json.loads(out.splitlines()[-1])
    if not line["correct"] or line["failed"]:
        raise RuntimeError(f"{workload} seed {seed} failed its checks in {root}")
    return {name: line["metrics"][name]["value"] for name in E2E_METRICS}


def _summary(name: str, parent: list, change: list) -> dict:
    p, c = np.asarray(parent), np.asarray(change)
    lower = name in LOWER_IS_BETTER or name.split(".")[0] in LOWER_IS_BETTER
    won = int(np.sum(c < p) if lower else np.sum(c > p))
    q = lambda x: [round(float(v), 6) for v in np.quantile(x, [0.25, 0.75])]  # noqa: E731
    return {"parent_median": round(float(np.median(p)), 6),
            "change_median": round(float(np.median(c)), 6),
            "parent_quartiles": q(p), "change_quartiles": q(c),
            "ratio_change_over_parent": round(float(np.median(c) / np.median(p)), 4),
            "pairs_change_better": won, "pairs": int(p.size),
            "parent_runs": [round(float(v), 6) for v in p],
            "change_runs": [round(float(v), 6) for v in c]}


def compare(parent: Path, change: Path, repeats: int, seeds, workloads, seconds) -> dict:
    runs = {"parent": [], "change": []}
    for k in range(repeats):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_layers(parent if side == "parent" else change))
        print(f"layers repeat {k}: " + json.dumps(runs["change"][-1]), file=sys.stderr)
    layers = {name: _summary(name, [r[name] for r in runs["parent"]],
                             [r[name] for r in runs["change"]])
              for name in runs["parent"][0]}

    e2e = {}
    for w in workloads:
        per = {"parent": [], "change": []}
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                per[side].append(_perfbench(parent if side == "parent" else change,
                                            w, seed, seconds))
            print(f"{w} seed {seed}: parent {per['parent'][-1]['wall_s']:.3f} s, "
                  f"change {per['change'][-1]['wall_s']:.3f} s", file=sys.stderr)
        e2e[w] = {"seeds": list(seeds),
                  "metrics": {m: _summary(m, [r[m] for r in per["parent"]],
                                          [r[m] for r in per["change"]])
                              for m in E2E_METRICS}}
    return {"machine": f"{os.cpu_count()} CPUs, {platform.processor() or platform.machine()}, "
                       f"{platform.system()}, Python {platform.python_version()}, "
                       f"numpy {np.__version__}",
            "method": "one fresh process per side and repeat, alternating which side runs "
                      "first; medians and quartiles over repeats (layers) or seeds (workloads)",
            "layers": {"repeats": repeats, "metrics": layers},
            "workloads": e2e}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--layers", type=Path, help="print event rates for DIR/src and exit")
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seeds", type=int, nargs="*", default=[])
    ap.add_argument("--workloads", nargs="*", default=["trajectory"])
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.layers is not None:
        print(json.dumps(layer_rates(args.layers.resolve() / "src")))
        return 0
    if args.parent is None or args.change is None or args.repeats < 1:
        ap.error("--parent and --change are required, with --repeats >= 1")
    result = compare(args.parent.resolve(), args.change.resolve(), args.repeats,
                     args.seeds, args.workloads if args.seeds else [], args.seconds)
    text = json.dumps(result, indent=1) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
