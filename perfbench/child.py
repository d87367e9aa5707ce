"""One workload run in a fresh process; started by run.py, not by hand.

Times the import of pairjump plus building the inputs (set-up), then runs
rounds of the workload's jobs for about --seconds, checking and
hashing each round's outputs untimed. With --trace 1, rounds alternate
untraced and traced, starting untraced, so one process yields both the
per-layer spans and the tracing overhead. Writes a JSON record to --record.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (imports numpy and pairjump: part of set-up)
from spans import EXACT_COUNTS, Tracer, layer_metrics  # noqa: E402


def cpu_seconds() -> float:
    """User + system CPU time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def provenance(root: Path) -> dict:
    import numpy
    import scipy

    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    threads = {k: v for k, v in os.environ.items()
               if k.endswith("_NUM_THREADS") or k in ("VECLIB_MAXIMUM_THREADS", "PAIRJUMP_THREADS")}
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "git_commit": commit,
            "thread_env": threads}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--work", required=True, help="scratch directory for job files")
    ap.add_argument("--record", help="where to write the run record; omit for set-up only")
    args = ap.parse_args()

    setup, run, check = workloads.WORKLOADS[args.workload]
    inp = setup(args.seed, args.work, args.small)
    setup_s = time.perf_counter() - T_START
    if args.record is None:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tracer = Tracer(run_id)
    if args.trace:
        tracer.install()
    rounds, span_rounds = [], []
    first_digest = first_counts = None
    t_begin = time.perf_counter()
    while True:
        r = len(rounds)
        traced = bool(args.trace) and r % 2 == 1
        tracer.active = traced
        c0, w0 = cpu_seconds(), time.perf_counter()
        try:
            out, error = run(inp, tracer), None
        except Exception:  # a job that raises is a failed check, not a crash
            out, error = None, traceback.format_exc()
        w1, c1 = time.perf_counter(), cpu_seconds()
        tracer.active = False
        spans = tracer.take_round()

        checks, digest, extra = [], None, []
        if error is None:
            try:
                checks, parts = check(inp, out)
                digest = workloads.digest(parts)
                if args.workload == "chaos":
                    extra = workloads.chaos_a4_verdicts(inp, out)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            print(error, file=sys.stderr)
            checks.append({"name": "round completed without an exception", "measured": 0.0,
                           "bound": "no exception", "passed": False})
        if r == 0:
            first_digest = digest
        else:
            same = digest is not None and digest == first_digest
            checks.append({"name": "digest equals round 0's", "measured": float(same),
                           "bound": "== 1", "passed": same})
        metrics = None
        if traced:
            metrics = layer_metrics(spans)
            counts = {k: metrics[k] for k in EXACT_COUNTS}
            if first_counts is None:
                first_counts = counts
            else:
                same = counts == first_counts
                checks.append({"name": "exact counts equal the first traced round's",
                               "measured": float(same), "bound": "== 1", "passed": same})
            span_rounds.append((r, spans))
        rounds.append({"round": r, "traced": traced, "wall_s": w1 - w0, "cpu_s": c1 - c0,
                       "digest": digest, "checks": checks, "a4_verdicts": extra,
                       "layer": metrics})
        # stop when another round would end nearer past --seconds than before it
        elapsed = time.perf_counter() - t_begin
        typical = statistics.median(x["wall_s"] for x in rounds)
        if len(rounds) >= (2 if args.trace else 1) and elapsed + typical / 2 >= args.seconds:
            break
    tracer.uninstall()

    spans_path = None
    if span_rounds:
        spans_path = Path(args.record).with_suffix(".spans.jsonl")
        tracer.write_spans(spans_path, span_rounds)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "small": args.small, "run_id": run_id, "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": rounds, "spans": str(spans_path) if spans_path else None,
        "provenance": provenance(Path(__file__).resolve().parents[1]),
    }
    Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
