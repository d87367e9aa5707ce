"""Before/after cost and accuracy of the mode statistics' phasors exp(-i theta).

Two checkouts of pairjump are compared, each used from its own ``src/`` (and,
for the end-to-end rows, its own ``perfbench/``):

    python3 bench/bench_phasors.py --parent ../parent --change . --repeats 5 \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --controls 1 2 3 --out BENCH_phasors.json

Each repeat times, in one fresh process per side with the side that runs first
alternating:

* ``diagnostics._mode_stats`` on one A4-shaped draw (400 replicas of 800
  angles from A4's reference law on the floor's grid, K = 16), the median of
  9 draws after one warm-up draw;
* A4's whole 300-draw i.i.d. floor, ``iid_chaos_samples``;
* ``summarize`` at the shape of perfbench's ``ensemble`` workload (100
  replicas, 2 checkpoints of 2000 angles, K = 16), the median of 9 calls after
  one warm-up call.

One more process per side saves its outputs: the phasors of fixed angles (the
side's ``_phasors`` if it has one, else ``np.exp(-1j * theta)``, which is what
an exp-based ``_mode_stats`` computes), the per-replica f1 and C of one
A4-shaped draw, ``summarize``'s f1 and C at the ensemble shape, and the 300
floor values. The report lists the largest difference between the sides,
absolute and elementwise relative. The end-to-end rows reuse ``bench_scalar``:
``perfbench/run.py --workload W --seed S --seconds 24 --trace 0`` per seed and
side, alternating; ``chaos`` runs on ``--seeds`` and ``ensemble``,
``trajectory`` and ``reference`` on ``--controls``.

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

DRAW_SHAPE = (400, 1, 800)  # A4: 400 replicas of N = 800, one checkpoint
ENSEMBLE_SHAPE = (100, 2, 2000)  # perfbench ensemble: R = 100, 2 checkpoints, N = 2000
KMAX = 16
FLOOR_DRAWS = 300
TIMED_CALLS = 9
CONTROL_WORKLOADS = ("ensemble", "trajectory", "reference")


def _setup(src: Path):
    sys.path.insert(0, str(src))
    from pairjump import circle, diagnostics, kinetic, models, verify

    f_ref = kinetic.cl_evolve(verify._wn_fourier(0.5, KMAX), circle.WrappedNormalNoise(0.5), 1.0)
    grid = circle.density_from_coeffs(f_ref, diagnostics.FLOOR_GRID)
    ensemble = models.EnsembleResult(
        times=np.array([0.25, 0.5]),
        snapshots=np.random.default_rng(7).uniform(0.0, circle.TWO_PI, ENSEMBLE_SHAPE),
        n_events=np.zeros(ENSEMBLE_SHAPE[0], dtype=np.int64))
    return circle, diagnostics, verify, f_ref, grid, ensemble


def _floor(diagnostics, verify, f_ref):
    return diagnostics.iid_chaos_samples(f_ref, DRAW_SHAPE[2], DRAW_SHAPE[0], KMAX, FLOOR_DRAWS,
                                         np.random.default_rng([verify.MASTER_SEED, 4]))


def layer_times(src: Path) -> dict:
    """Per-draw mode statistics, the whole floor and summarize for the pairjump in src."""
    circle, diagnostics, verify, f_ref, grid, ensemble = _setup(src)
    rng = np.random.default_rng(2026)
    diagnostics._mode_stats(circle.sample_grid_density(grid, rng, DRAW_SHAPE), KMAX)  # warm-up
    modes = []
    for _ in range(TIMED_CALLS):
        x = circle.sample_grid_density(grid, rng, DRAW_SHAPE)
        t = time.perf_counter()
        diagnostics._mode_stats(x, KMAX)
        modes.append(time.perf_counter() - t)

    t = time.perf_counter()
    _floor(diagnostics, verify, f_ref)
    floor_s = time.perf_counter() - t

    diagnostics.summarize(ensemble, kmax=KMAX)  # warm-up
    summ = []
    for _ in range(TIMED_CALLS):
        t = time.perf_counter()
        diagnostics.summarize(ensemble, kmax=KMAX)
        summ.append(time.perf_counter() - t)
    return {"mode_stats_ms.a4_draw": 1e3 * float(np.median(modes)),
            "floor_s.a4": floor_s,
            "summarize_ms.ensemble": 1e3 * float(np.median(summ))}


def save_outputs(src: Path, npz: Path) -> None:
    """Phasors of fixed angles, f1 and C at both shapes, and the floor values."""
    circle, diagnostics, verify, f_ref, grid, ensemble = _setup(src)
    h = circle.TWO_PI / 1024
    theta = np.concatenate((np.random.default_rng(1).uniform(0.0, circle.TWO_PI, 1 << 16),
                            np.arange(1024) * h, (np.arange(1024) + 0.5) * h))
    if hasattr(diagnostics, "_phasors"):
        phasors = diagnostics._phasors(theta, np.empty(theta.shape, dtype=complex))
    else:
        phasors = np.exp(-1j * theta)
    a, b = diagnostics._mode_stats(
        circle.sample_grid_density(grid, np.random.default_rng(2026), DRAW_SHAPE), KMAX)
    s = diagnostics.summarize(ensemble, kmax=KMAX)
    np.savez(npz, phasor=phasors, **{"f1.a4_draw": a[:, 0, 1:], "C.a4_draw": b[:, 0, 1:],
                                     "f1.ensemble": s.f1, "C.ensemble": s.pair,
                                     "D.floor": _floor(diagnostics, verify, f_ref)})


def compare_outputs(parent: Path, change: Path) -> dict:
    """Largest |change - parent| of every saved output, absolute and elementwise relative."""
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
        delta = np.abs(arrays["change"][name] - ref)
        nonzero = np.abs(ref) > 0
        diffs[name] = {"max_abs_diff": float(delta.max()),
                       "max_rel_diff": float(np.max(delta[nonzero] / np.abs(ref[nonzero])))}
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
                                                   ["chaos"] if args.seeds else [],
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
