"""Before/after comparison of two pairjump checkouts, layer by layer and end to end.

    python3 bench/compare.py --topic TOPIC --parent ../parent --change . --repeats 5 \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --workloads chaos ensemble trajectory reference \\
        --tier1 3 --traced 7177 --out BENCH_TOPIC.json

TOPIC names an entry of ``bench/topics.py``; its code runs on each checkout's
``src/``, every run in a fresh process, the side that runs first alternating.
The output holds ``src_lines`` (lines of ``src/pairjump/*.py`` per side and
file, and the net change), ``layers`` (per repeat), ``agreement`` (topics with outputs),
``workloads`` (each side's ``perfbench/run.py --trace 0`` per seed, and the
seeds whose output digests differ between the sides), ``tier1``
(each side's test suite, R times) and ``traced`` (one ``--trace 1`` run per
side and workload, parent first). Each section is written to ``--out`` as soon
as it finishes. ``--layers`` and ``--outputs`` are the per-process steps.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from topics import TOPICS

WORKLOADS = ("ensemble", "chaos", "trajectory", "reference")
METHOD = ("one fresh process per side and repeat, alternating which side runs first; "
          "medians and quartiles over repeats (layers) or seeds (workloads)")


def lower_is_better(name: str) -> bool:
    return "_per_s" not in name


def summary(parent: list, change: list, lower: bool) -> dict:
    """Medians, quartiles and the pairs the change won, for one metric."""
    p, c = np.asarray(parent), np.asarray(change)
    won = int(np.sum(c < p) if lower else np.sum(c > p))
    q = lambda x: [round(float(v), 6) for v in np.quantile(x, [0.25, 0.75])]  # noqa: E731
    return {"parent_median": round(float(np.median(p)), 6),
            "change_median": round(float(np.median(c)), 6),
            "parent_quartiles": q(p), "change_quartiles": q(c),
            "ratio_change_over_parent": round(float(np.median(c) / np.median(p)), 4),
            "pairs_change_better": won, "pairs": int(p.size),
            "parent_runs": [round(float(v), 6) for v in p],
            "change_runs": [round(float(v), 6) for v in c]}


def machine() -> str:
    return (f"{os.cpu_count()} CPUs, {platform.processor() or platform.machine()}, "
            f"{platform.system()}, Python {platform.python_version()}, numpy {np.__version__}")


def _run(cmd, cwd=None) -> str:
    return subprocess.run(cmd, cwd=cwd, check=True, stdout=subprocess.PIPE, text=True).stdout


def _step(topic: str, *args) -> list:  # one per-process step of this harness
    return [sys.executable, str(Path(__file__).resolve()), "--topic", topic, *args]


def _alternated(sides: dict, items, run, label: str) -> dict:
    """``run(root, item)`` per item on both sides, the side that runs first alternating."""
    runs = {"parent": [], "change": []}
    for k, item in enumerate(items):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            runs[side].append(run(sides[side], item))
        print(f"{label} {item}: parent {runs['parent'][-1]}, change {runs['change'][-1]}",
              file=sys.stderr)
    return runs


def _metrics(runs: dict) -> dict:
    """Each metric of per-side lists of figure dicts; non-numbers (digests) listed per side."""
    metrics = {}
    for name, first in runs["parent"][0].items():
        per = {side: [r[name] for r in runs[side]] for side in runs}
        if isinstance(first, (int, float)):
            metrics[name] = summary(per["parent"], per["change"], lower_is_better(name))
        else:
            metrics[name] = {side: sorted(set(v)) for side, v in per.items()}
    return metrics


def compare_src_lines(sides: dict) -> dict:
    """Lines of src/pairjump/*.py per side (newlines, as ``wc -l`` counts them), the
    net change, and the net change of each file whose count differs."""
    per = {side: {p.name: p.read_bytes().count(b"\n")
                  for p in (root / "src" / "pairjump").glob("*.py")}
           for side, root in sides.items()}
    parent, change = per["parent"], per["change"]
    by_file = {name: change.get(name, 0) - parent.get(name, 0)
               for name in sorted(parent.keys() | change.keys())}
    return {"parent": sum(parent.values()), "change": sum(change.values()),
            "net": sum(change.values()) - sum(parent.values()),
            "by_file": {name: d for name, d in by_file.items() if d}}


def compare_layers(topic: str, sides: dict, repeats: int) -> dict:
    runs = _alternated(sides, range(repeats), lambda root, _: json.loads(
        _run(_step(topic, "--layers", str(root)), root).splitlines()[-1]), "layers repeat")
    return {"repeats": repeats, "metrics": _metrics(runs)}


def compare_outputs(topic: str, sides: dict) -> dict:
    """Per output: largest absolute and elementwise relative diff, parent's largest |value|."""
    with tempfile.TemporaryDirectory() as work:
        arrays = {}
        for side, root in sides.items():
            npz = Path(work) / f"{side}.npz"
            _run(_step(topic, "--outputs", str(root), str(npz)))
            with np.load(npz) as data:
                arrays[side] = dict(data)
    diffs = {}
    for name, ref in arrays["parent"].items():
        delta = np.abs(arrays["change"][name] - ref)
        nonzero = np.abs(ref) > 0
        diffs[name] = {"max_abs_diff": float(delta.max()),
                       "max_rel_diff": float(np.max(delta[nonzero] / np.abs(ref[nonzero]),
                                                    initial=0.0)),
                       "parent_max_abs": float(np.abs(ref).max())}
    return diffs


def _perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run's metrics, and under ``digest`` its round digests as printed."""
    out = _run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)], root).splitlines()
    line = json.loads(out[-1])
    if not line["correct"] or line["failed"]:
        raise RuntimeError(f"{workload} seed {seed} failed its checks in {root}")
    digest = next(ln.split(maxsplit=1)[1] for ln in out if ln.startswith("digest "))
    return {**{name: m["value"] for name, m in line["metrics"].items()}, "digest": digest}


def compare_workloads(sides: dict, seeds, workloads, seconds: float) -> dict:
    """``perfbench/run.py --trace 0`` end-to-end metrics per workload, sides alternating by
    seed, and the seeds whose parent and change output digests differ."""
    result = {}
    for w in workloads if seeds else ():
        runs = _alternated(sides, seeds,
                           lambda root, seed: _perfbench(root, w, seed, seconds, 0), w)
        digests = {side: [r.pop("digest") for r in runs[side]] for side in runs}
        result[w] = {"seeds": list(seeds), "metrics": _metrics(runs),
                     "digests_differ": [seed for seed, p, c in zip(
                         seeds, digests["parent"], digests["change"]) if p != c]}
    return result


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


def compare_tier1(sides: dict, repeats: int) -> dict:
    runs = _alternated(sides, range(repeats), lambda root, _: _tier1(root), "tier1 repeat")
    return {"wall_s": summary([w for w, _ in runs["parent"]], [w for w, _ in runs["change"]],
                              lower_is_better("wall_s")),
            "passed": {side: sorted({n for _, n in r}) for side, r in runs.items()}}


def compare_traced(sides: dict, seed: int, workloads, seconds: float) -> dict:
    """One ``--trace 1`` run per side and workload: the layers a saving should show in."""
    traced = {w: {side: _perfbench(root, w, seed, seconds, 1) for side, root in sides.items()}
              for w in workloads}
    return {"seed": seed, "seconds": seconds, "workloads": traced}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--topic", required=True, choices=sorted(TOPICS))
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seeds", type=int, nargs="*", default=[])
    ap.add_argument("--workloads", nargs="*", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--tier1", type=int, default=0, metavar="R", help="test-suite runs per side")
    ap.add_argument("--traced", type=int, metavar="SEED", help="seed of the --trace 1 runs")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--layers", type=Path, metavar="DIR", help="print DIR's layer figures")
    ap.add_argument("--outputs", type=Path, nargs=2, metavar=("DIR", "NPZ"), help="save outputs")
    args = ap.parse_args(argv)
    layers, outputs = TOPICS[args.topic]
    if args.layers is not None:
        print(json.dumps(layers(args.layers.resolve() / "src")))
        return 0
    if args.outputs is not None:
        if outputs is None:
            ap.error(f"topic {args.topic} saves no outputs")
        outputs(args.outputs[0].resolve() / "src", args.outputs[1])
        return 0
    if args.parent is None or args.change is None or args.repeats < 1 or args.tier1 < 0:
        ap.error("--parent and --change are required, with --repeats >= 1 and --tier1 >= 0")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    result = {"machine": machine(), "method": METHOD}

    def section(name, value):  # written to --out as it finishes, so a later failure keeps it
        result[name] = value
        if args.out is not None:
            args.out.write_text(json.dumps(result, indent=1) + "\n")

    section("src_lines", compare_src_lines(sides))
    section("layers", compare_layers(args.topic, sides, args.repeats))
    if outputs is not None:
        section("agreement", compare_outputs(args.topic, sides))
    section("workloads", compare_workloads(sides, args.seeds, args.workloads, args.seconds))
    if args.tier1:
        section("tier1", compare_tier1(sides, args.tier1))
    if args.traced is not None:
        section("traced", compare_traced(sides, args.traced, args.workloads, args.seconds))
    if args.out is None:
        print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
