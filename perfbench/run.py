"""pairjump benchmark: one workload run, metrics as a JSON last line.

    python3 perfbench/run.py --workload {ensemble,chaos,trajectory,reference}
                             --seed N --seconds S --trace {0,1}

Run from the repository root (or any checkout holding src/ and perfbench/).
The program is imported from ./src; nothing is installed. Each run starts
fresh Python processes with BLAS/OpenMP pinned to one thread:

* SETUP_PROBES processes that only import pairjump and build the inputs,
  for the median set-up time;
* one workload process (child.py) that repeats the workload's jobs for
  --seconds, one job at a time, checks and hashes every round's outputs,
  and writes a record under .perfbench/.

--trace 0 reports the end-to-end metrics: median round wall and CPU time,
median set-up time and the process's peak RSS. --trace 1 reports the
per-layer metrics from spans (see spans.py). Lines before the last show
each metric with its unit, the output digest and any failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import EXACT_COUNTS, LAYER_UNITS

WORKLOADS = ("ensemble", "chaos", "trajectory", "reference")
SETUP_PROBES = 4
TIME_LIMIT_S = 170.0
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "PAIRJUMP_THREADS")}
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_ONLY_UNITS = {"trace.overhead_s": "s", "events_per_s": "1/s"}


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _child(root: Path, env: dict, args: list, timeout: float, capture: bool) -> str:
    """Run child.py to completion; its stdout is returned or passed to stderr."""
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "child.py"), *args],
                          env=env, cwd=root, check=True, timeout=timeout, text=True,
                          stdout=subprocess.PIPE if capture else sys.stderr)
    return proc.stdout


def record_metrics(rec: dict) -> dict:
    """Metrics of a run record: end-to-end without trace, per-layer with it."""
    plain = [r for r in rec["rounds"] if not r["traced"]]
    traced = [r for r in rec["rounds"] if r["traced"]]
    wall = statistics.median(r["wall_s"] for r in plain)
    if not rec["trace"]:
        values = {"wall_s": wall,
                  "cpu_s": statistics.median(r["cpu_s"] for r in plain),
                  "setup_s": statistics.median(rec["setup_samples"]),
                  "peak_rss_mb": rec["peak_rss_mb"]}
        units = END_TO_END_UNITS
    else:
        # counts repeat exactly in every traced round (checked in child.py)
        values = {name: traced[0]["layer"][name] if name in EXACT_COUNTS
                  else statistics.median(r["layer"][name] for r in traced)
                  for name in LAYER_UNITS}
        values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - wall
        values["events_per_s"] = traced[0]["layer"]["models.events"] / wall
        units = {**LAYER_UNITS, **TRACE_ONLY_UNITS}
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="tiny job shapes, for the benchmark's own tests only")
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= 60:
        return _fail("--seconds must be in (0, 60]")

    t0 = time.monotonic()
    root = Path(__file__).resolve().parents[1]
    src = root / "src"
    if not (src / "pairjump" / "__init__.py").is_file():
        return _fail(f"no pairjump sources under {src}; run from a full checkout")
    env = {**os.environ, **THREAD_ENV,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    tag = f"{args.workload}-seed{args.seed}-t{args.trace}-{stamp}-{os.getpid()}"
    base = root / ".perfbench"
    work, record_path = base / "work" / tag, base / "records" / f"{tag}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", str(work)]
    if args.small:
        common.append("--small")

    def left():
        return TIME_LIMIT_S - (time.monotonic() - t0)

    try:
        probes = [json.loads(_child(root, env, common, left(), True).splitlines()[-1])["setup_s"]
                  for _ in range(SETUP_PROBES)]
        _child(root, env, [*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                           "--record", str(record_path)], left(), False)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        return _fail(f"workload process failed: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rec = json.loads(record_path.read_text())
    rec["setup_samples"] = [*probes, rec["setup_s"]]
    metrics = record_metrics(rec)
    rec["metrics"] = metrics
    record_path.write_text(json.dumps(rec, indent=1) + "\n")

    checks = [c for r in rec["rounds"] for c in r["checks"]]
    failed = [c for c in checks if not c["passed"]]
    digests = sorted({str(r["digest"]) for r in rec["rounds"]})
    print(f"workload {args.workload} seed {args.seed} rounds {len(rec['rounds'])} "
          f"record {record_path.relative_to(root)}")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    print(f"digest {' '.join(digests)}")
    for name in dict.fromkeys(c["name"] for c in failed):
        same = [c for c in failed if c["name"] == name]
        print(f"FAILED in {len(same)} round(s): {name}: {same[0]['measured']!r} "
              f"(bound {same[0]['bound']})")
    for c in rec["rounds"][0]["a4_verdicts"]:
        print(f"A4 verdict {'pass' if c['passed'] else 'FAIL'}: {c['name']}: "
              f"{c['measured']:.4g} (bound {c['bound']}), not gated")
    print(json.dumps({"correct": not failed, "attempted": len(checks), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
