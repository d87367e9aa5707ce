"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads ensemble chaos --seeds 1 2 3 4 5
                                [--seconds 24] [--trace 0] [--out summary.json]

Runs perfbench/run.py once per (workload, seed), one at a time, and prints
for every workload and metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, which is
the interquartile distance as a share of the median. A seed listed twice
is run twice; runs with the same seed must match in output digest and in
every count, and the table says whether they do. --out also records the provenance of
the first run and the CPU model. Exits non-zero if a run fails, a
check fails or same-seed digests differ.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=RUN.parents[1], capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["digest"] = next(ln.split()[1:] for ln in lines if ln.startswith("digest "))
    record = next(ln.split()[-1] for ln in lines if ln.startswith("workload "))
    result["provenance"] = json.loads((RUN.parents[1] / record).read_text())["provenance"]
    return result


def cpu_model() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    return next((ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("model name")),
                platform.processor())


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)  # med is the median
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the table as JSON here")
    args = ap.parse_args(argv)

    ok = True
    table, provenance = {}, None
    for w in args.workloads:
        runs = []
        for seed in args.seeds:
            res = run_once(w, seed, args.seconds, args.trace)
            ok &= res["correct"] and res["failed"] == 0
            print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}/"
                  f"{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()
                      if k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")), flush=True)
            runs.append((seed, res))
            provenance = provenance or {**res["provenance"], "cpu": cpu_model()}
        outputs = {}  # digest and exact counts, which same-seed runs must share
        for seed, res in runs:
            counts = tuple((k, v["value"]) for k, v in res["metrics"].items()
                           if v["unit"] in ("count", "bytes"))
            outputs.setdefault(seed, set()).add((tuple(res["digest"]), counts))
        same_seed_ok = all(len(d) == 1 for d in outputs.values())
        ok &= same_seed_ok
        metrics = {name: dict(spread([res["metrics"][name]["value"] for _, res in runs]),
                              unit=m["unit"])
                   for name, m in runs[0][1]["metrics"].items()}
        table[w] = {"metrics": metrics, "same_seed_outputs_match": same_seed_ok,
                    "failed": sum(res["failed"] for _, res in runs),
                    "attempted": sum(res["attempted"] for _, res in runs)}
        print(f"== {w}: {len(runs)} runs, failed {table[w]['failed']}/{table[w]['attempted']}, "
              f"same-seed digests and counts match: {same_seed_ok}")
        for name, s in metrics.items():
            print(f"  {name:<34} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                                              "trace": args.trace, "provenance": provenance,
                                              "workloads": table}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
