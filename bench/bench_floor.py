"""Before/after timings of the i.i.d. chaos floor, layer by layer and end to end.

Two checkouts of pairjump are compared, each used from its own ``src/`` (and,
for the end-to-end rows, its own ``perfbench/`` and ``tests/``):

    python3 bench/bench_floor.py --parent ../parent --change . --repeats 5 \\
        --seeds 1 2 3 4 5 6 7 8 9 9041 --workloads chaos ensemble trajectory reference \\
        --tier1 3 --out BENCH_floor.json

Each repeat times, in one fresh process per side with the side that runs
first alternating, the layers of one A4-shaped floor draw (400 replicas of
800 angles, K = 16): drawing the angles with ``sample_grid_density`` and the
mode statistics ``_mode_stats``, each the median of 9 draws after one
warm-up draw; then the whole 300-draw floor of A4, whose SHA-256 is recorded
so both sides can be seen to return the same bytes. The end-to-end rows reuse
``bench_scalar``: ``perfbench/run.py --workload W --seed S --seconds 24
--trace 0`` per seed and side, alternating. ``--tier1 R`` adds R alternated
runs of each checkout's own test suite.

``--layers DIR`` is the per-process timer: it prints one JSON object of
layer times for the pairjump under ``DIR/src``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import bench_scalar

DRAW_SHAPE = (400, 1, 800)  # A4: 400 replicas of N = 800, one checkpoint
KMAX = 16
FLOOR_DRAWS = 300
TIMED_DRAWS = 9


def layer_times(src: Path) -> dict:
    """Per-draw and whole-floor times for the pairjump in src, at A4's settings."""
    sys.path.insert(0, str(src))
    from pairjump import circle, diagnostics, kinetic, verify

    g = circle.WrappedNormalNoise(0.5)
    f_ref = kinetic.cl_evolve(verify._wn_fourier(0.5, KMAX), g, 1.0)
    grid = circle.density_from_coeffs(f_ref, diagnostics.FLOOR_GRID)
    rng = np.random.default_rng(2026)
    circle.sample_grid_density(grid, rng, DRAW_SHAPE)  # warm-up
    sample, modes = [], []
    for _ in range(TIMED_DRAWS):
        t = time.perf_counter()
        x = circle.sample_grid_density(grid, rng, DRAW_SHAPE)
        sample.append(time.perf_counter() - t)
        t = time.perf_counter()
        diagnostics._mode_stats(x, KMAX)
        modes.append(time.perf_counter() - t)

    t = time.perf_counter()
    floor = diagnostics.iid_chaos_samples(f_ref, DRAW_SHAPE[2], DRAW_SHAPE[0], KMAX,
                                          FLOOR_DRAWS,
                                          np.random.default_rng([verify.MASTER_SEED, 4]))
    floor_s = time.perf_counter() - t
    return {"sample_ms.a4_draw": 1e3 * float(np.median(sample)),
            "mode_stats_ms.a4_draw": 1e3 * float(np.median(modes)),
            "floor_s.a4": floor_s,
            "floor_sha256.a4": hashlib.sha256(floor.tobytes()).hexdigest()}


def _tier1(root: Path) -> tuple:
    """Wall seconds and pass count of one run of the checkout's own test suite."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "--continue-on-collection-errors"],
                         cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t
    tail = out.stdout.strip().splitlines()[-1]
    passed = re.search(r"(\d+) passed", tail)
    if out.returncode != 0 or passed is None:
        raise RuntimeError(f"test suite failed in {root}: {tail}")
    return wall, int(passed.group(1))


def compare_tier1(parent: Path, change: Path, repeats: int) -> dict:
    runs = {"parent": [], "change": []}
    for k in range(repeats):
        for side in bench_scalar.alternate(k):
            runs[side].append(_tier1(parent if side == "parent" else change))
        print(f"tier1 repeat {k}: parent {runs['parent'][-1]}, change {runs['change'][-1]}",
              file=sys.stderr)
    return {"wall_s": bench_scalar.summary([w for w, _ in runs["parent"]],
                                           [w for w, _ in runs["change"]], True),
            "passed": {side: sorted({n for _, n in r}) for side, r in runs.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--layers", type=Path, help="print layer times for DIR/src and exit")
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seeds", type=int, nargs="*", default=[])
    ap.add_argument("--workloads", nargs="*", default=["chaos"])
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--tier1", type=int, default=0, help="alternated test-suite runs per side")
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
    if args.tier1:
        result["tier1"] = compare_tier1(parent, change, args.tier1)
    text = json.dumps(result, indent=1) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
