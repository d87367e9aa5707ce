"""Tests of the benchmark itself, at small job shapes.

    python3 -m pytest -q perfbench

The exact counts (events, RK4 steps, matrix entries, bytes written, series
terms) must repeat exactly across runs with one seed, so that later changes
can cite them as counts.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
from run import WORKLOADS  # noqa: E402
from spans import EXACT_COUNTS, Tracer, layer_metrics, self_times  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _small(workload, seed, trace):
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(ln for ln in lines if ln.startswith("digest "))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_and_digest_repeat_for_a_seed(workload):
    first, d1 = _small(workload, 7, 1)
    second, d2 = _small(workload, 7, 1)
    other, d3 = _small(workload, 8, 1)
    for res in (first, second, other):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert set(res["metrics"]) == {*spans.LAYER_UNITS, "trace.overhead_s", "events_per_s"}
    counts = {k: first["metrics"][k]["value"] for k in EXACT_COUNTS}
    assert counts == {k: second["metrics"][k]["value"] for k in EXACT_COUNTS}
    assert d1 == d2 and len(d1.split()) == 2  # one digest shared by every round
    assert d3 != d1


def test_untraced_run_reports_end_to_end_metrics():
    res, _ = _small("reference", 3, 0)
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_refuses_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "ensemble", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_children_once():
    spans_ = [
        {"name": "a", "parent": None, "start": 0.0, "end": 10.0, "attrs": {}},
        {"name": "b", "parent": 0, "start": 1.0, "end": 4.0, "attrs": {}},
        {"name": "c", "parent": 1, "start": 2.0, "end": 3.0, "attrs": {}},
        {"name": "d", "parent": 0, "start": 5.0, "end": 6.0, "attrs": {}},
    ]
    assert self_times(spans_) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_sees_calls_made_inside_the_package():
    import numpy as np
    from pairjump import circle, cli, models

    tracer = Tracer("test")
    original = models.simulate_ensemble
    tracer.install()
    try:
        assert cli.simulate_ensemble is models.simulate_ensemble is not original
        tracer.active = True
        with tracer.span("job.test", model="cl"):
            ens = models.simulate_ensemble(models.ModelSpec("cl", circle.UniformNoise()),
                                           5, 1.0, [1.0], 3, 11)
        tracer.active = False
        rec = tracer.take_round()
    finally:
        tracer.uninstall()
    assert models.simulate_ensemble is original and cli.simulate_ensemble is original
    names = [s["name"] for s in rec]
    assert names[:2] == ["job.test", "models.simulate_ensemble"]
    assert names.count("models.simulate") == 3
    m = layer_metrics(rec)
    assert m["models.simulate_calls"] == 3
    assert m["models.events"] == int(np.sum(ens.n_events))
    assert 0.0 < m["models.ensemble_self_s"] < rec[1]["end"] - rec[1]["start"]
