"""Before/after cost of the midpoint (bdg) kinetic right-hand side, layer by layer and end to end.

Two checkouts of pairjump are compared, each used from its own ``src/`` (and,
for the end-to-end rows, its own ``perfbench/``):

    python3 bench/bench_kinetic.py --parent ../parent --change . --repeats 5 \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --controls 1 2 3 4 5 --out BENCH_deposition.json

Each repeat times, in one fresh process per side with the side that runs first
alternating, the midpoint deposition ``kinetic._pushforward_masses(p, p)`` per
call, in ms, at M = 256, 512 and 1024 (p a tabulated wrapped normal of
variance 0.5; median of 25 calls after one warm-up call, which is where a
table-based deposition builds its cached tables) and ``bdg_evolve`` at M =
1024 to t = 0.5 with dt = 0.02 and wrapped-normal noise of variance 0.2, the
largest solve of perfbench's ``reference`` workload (median of 3 after one
warm-up). One more process per side saves the outputs,
``_pushforward_masses(pa, pb)`` of fixed random, unequal pa and pb at each M
and the ``bdg_evolve`` masses, and the report lists the largest difference
between the sides, absolute and relative to the largest mass. The end-to-end
rows reuse ``bench_scalar``: ``perfbench/run.py --workload W --seed S
--seconds 24 --trace 0`` per seed and side, alternating; ``reference`` runs on
``--seeds`` and ``ensemble``, ``chaos`` and ``trajectory`` on ``--controls``.

``--layers DIR`` is the per-process timer: it prints one JSON object of layer
times for the pairjump under ``DIR/src``; ``--outputs DIR --npz FILE`` saves
that pairjump's outputs to FILE.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import bench_scalar

GRIDS = (256, 512, 1024)
DEPOSITION_CALLS = 25
EVOLVE_M, EVOLVE_T, EVOLVE_RUNS = 1024, 0.5, 3
CONTROL_WORKLOADS = ("ensemble", "chaos", "trajectory")


def _modules(src: Path):
    sys.path.insert(0, str(src))
    from pairjump import circle, kinetic

    return circle, kinetic


def _evolve(circle, kinetic):
    f0 = circle.WrappedNormalNoise(0.5).tabulate(EVOLVE_M)
    return kinetic.bdg_evolve(f0, circle.WrappedNormalNoise(0.2), EVOLVE_T,
                              kinetic.KineticConfig(dt=0.02))


def _median_time(fn, runs: int) -> float:
    fn()  # warm-up
    times = []
    for _ in range(runs):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return float(np.median(times))


def layer_times(src: Path) -> dict:
    """Per-call deposition times and one large bdg solve for the pairjump in src."""
    circle, kinetic = _modules(src)
    times = {}
    for M in GRIDS:
        p = circle.WrappedNormalNoise(0.5).tabulate(M).masses
        times[f"pushforward_ms.M{M}"] = 1e3 * _median_time(
            lambda: kinetic._pushforward_masses(p, p), DEPOSITION_CALLS)
    times[f"bdg_evolve_s.M{EVOLVE_M}"] = _median_time(lambda: _evolve(circle, kinetic),
                                                       EVOLVE_RUNS)
    return times


def save_outputs(src: Path, npz: Path) -> None:
    """Deposition of random unequal factors at each M, and the large solve's masses."""
    circle, kinetic = _modules(src)
    out = {}
    for M in GRIDS:
        rng = np.random.default_rng(M)
        pa, pb = rng.random(M), rng.random(M) ** 3
        out[f"pushforward.M{M}"] = kinetic._pushforward_masses(pa / pa.sum(), pb / pb.sum())
    out[f"bdg_evolve.M{EVOLVE_M}"] = _evolve(circle, kinetic).masses
    np.savez(npz, **out)


def compare_outputs(parent: Path, change: Path) -> dict:
    """max |change - parent| of every saved output, absolute and over its largest value."""
    with tempfile.TemporaryDirectory() as work:
        arrays = {}
        for side, root in (("parent", parent), ("change", change)):
            npz = Path(work) / f"{side}.npz"
            subprocess.run([sys.executable, __file__, "--outputs", str(root), "--npz", str(npz)],
                           check=True)
            with np.load(npz) as data:
                arrays[side] = dict(data)
    diffs = {}
    for name, ref in arrays["parent"].items():
        delta = float(np.max(np.abs(arrays["change"][name] - ref)))
        diffs[name] = {"max_abs_diff": delta, "max_rel_diff": delta / float(np.max(ref))}
    return diffs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--layers", type=Path, help="print layer times for DIR/src and exit")
    ap.add_argument("--outputs", type=Path, help="save the outputs of DIR/src to --npz and exit")
    ap.add_argument("--npz", type=Path)
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seeds", type=int, nargs="*", default=[])
    ap.add_argument("--controls", type=int, nargs="*", default=[])
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.layers is not None:
        print(json.dumps(layer_times(args.layers.resolve() / "src")))
        return 0
    if args.outputs is not None:
        if args.npz is None:
            ap.error("--outputs needs --npz")
        save_outputs(args.outputs.resolve() / "src", args.npz)
        return 0
    if args.parent is None or args.change is None or args.repeats < 1:
        ap.error("--parent and --change are required, with --repeats >= 1")
    parent, change = args.parent.resolve(), args.change.resolve()
    result = {"machine": bench_scalar.machine(), "method": bench_scalar.METHOD,
              "layers": bench_scalar.compare_layers(Path(__file__).resolve(), parent, change,
                                                    args.repeats, lambda name: True),
              "agreement": compare_outputs(parent, change),
              "workloads": {
                  **bench_scalar.compare_workloads(parent, change, args.seeds,
                                                   ["reference"] if args.seeds else [],
                                                   args.seconds),
                  **bench_scalar.compare_workloads(parent, change, args.controls,
                                                   CONTROL_WORKLOADS if args.controls else [],
                                                   args.seconds)}}
    text = json.dumps(result, indent=1) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
