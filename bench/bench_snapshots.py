"""Before/after cost of writing ``snapshots.jsonl``, layer by layer and end to end.

Two checkouts of pairjump are compared, each used from its own ``src/`` (and,
for the end-to-end rows, its own ``perfbench/``):

    python3 bench/bench_snapshots.py --parent ../parent --change . --repeats 5 \\
        --seeds 1 2 3 4 5 6 7 8 9 9041 --workloads ensemble chaos trajectory reference \\
        --traced 7177 --out BENCH_snapshots.json

Each repeat runs, in one fresh process per side with the side that runs first
alternating, ``pairjump simulate`` through ``cli.main`` on one job of the
perfbench ``ensemble`` shape (cl, wrapped-normal noise 0.5 from a wrapped
normal 0.5 start, N = 2000, R = 100, checkpoints 0.25 and 0.5, one thread):
one warm-up run, then the median of 3. The snapshot write is timed from
``simulate_ensemble`` returning to ``summarize`` being called, which on both
sides covers exactly the writing of ``snapshots.jsonl``. Every run parses the
file back with the stdlib ``json`` and refuses to report unless the parsed
array equals the engine's snapshots bit for bit; the SHA-256 of the parsed
array is listed per side, so equal digests show that both sides' files hold
the same doubles. The end-to-end rows reuse ``bench_scalar``:
``perfbench/run.py --workload W --seed S --seconds 24 --trace 0`` per seed and
side, alternating. ``--traced S`` adds one ``--trace 1`` ``ensemble`` run per
side, to show in which layer the saving appears.

``--layers DIR`` is the per-process timer: it prints one JSON object of
layer figures for the pairjump under ``DIR/src``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import bench_scalar

JOB = {"model": "cl", "n_particles": 2000, "noise": {"kind": "wrapped_normal", "param": 0.5},
       "initial": {"kind": "wrapped_normal", "param": 0.5}, "t_end": 0.5,
       "checkpoints": [0.25, 0.5], "replicas": 100, "seed": 20261018}
TIMED_RUNS = 3
TRACED_METRICS = ("cli.self_s", "cli.bytes_written", "models.ensemble_self_s",
                  "diagnostics.summarize_s", "circle.sample_s")


def layer_times(src: Path) -> dict:
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


def compare_traced(parent: Path, change: Path, seed: int) -> dict:
    """One ``--trace 1`` ``ensemble`` run per side: the layers the saving should show in."""
    traced = {}
    for side, root in (("parent", parent), ("change", change)):
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ensemble",
                              "--seed", str(seed), "--seconds", "8", "--trace", "1"],
                             cwd=root, check=True, capture_output=True, text=True).stdout
        metrics = json.loads(out.splitlines()[-1])["metrics"]
        traced[side] = {name: metrics[name]["value"] for name in TRACED_METRICS}
    return {"seed": seed, "seconds": 8, **traced}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--layers", type=Path, help="print layer figures for DIR/src and exit")
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seeds", type=int, nargs="*", default=[])
    ap.add_argument("--workloads", nargs="*", default=["ensemble"])
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--traced", type=int, help="seed of one traced ensemble run per side")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.layers is not None:
        print(json.dumps(layer_times(args.layers.resolve() / "src")))
        return 0
    if args.parent is None or args.change is None or args.repeats < 1:
        ap.error("--parent and --change are required, with --repeats >= 1")
    parent, change = args.parent.resolve(), args.change.resolve()
    result = {"machine": bench_scalar.machine(), "method": bench_scalar.METHOD,
              "layers": bench_scalar.compare_layers(Path(__file__).resolve(), parent, change,
                                                    args.repeats, lambda name: True),
              "workloads": bench_scalar.compare_workloads(parent, change, args.seeds,
                                                          args.workloads, args.seconds)}
    if args.traced is not None:
        result["traced"] = compare_traced(parent, change, args.traced)
    text = json.dumps(result, indent=1) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
