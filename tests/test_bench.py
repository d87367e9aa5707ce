"""The before/after harness in bench/: its summaries, its table and its command line."""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import compare  # noqa: E402
import topics  # noqa: E402


def test_summary_medians_quartiles_and_pairs_won():
    s = compare.summary([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.5, 2.0, 3.0, 6.0], lower=True)
    assert s["parent_median"] == 3.0 and s["change_median"] == 2.5
    assert s["parent_quartiles"] == [2.0, 4.0] and s["change_quartiles"] == [2.0, 3.0]
    assert s["ratio_change_over_parent"] == pytest.approx(2.5 / 3.0, abs=1e-4)
    assert s["pairs_change_better"] == 3 and s["pairs"] == 5
    assert s["parent_runs"] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert s["change_runs"] == [0.5, 2.5, 2.0, 3.0, 6.0]
    # the same runs read as rates: the change wins where it is larger
    assert compare.summary([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.5, 2.0, 3.0, 6.0],
                           lower=False)["pairs_change_better"] == 2


@pytest.mark.parametrize("name,lower", [
    ("simulate_events_per_s.cl_wn", False),
    ("replay_events_per_s.cl_wn", False),
    ("models.events_per_s.cl_wn", False),
    ("events_per_s", False),
    ("wall_s", True),
    ("peak_rss_mb", True),
    ("floor_s.a4", True),
    ("pushforward_ms.M256", True),
    ("snapshot_bytes", True),
])
def test_direction_is_read_from_the_metric_name(name, lower):
    assert compare.lower_is_better(name) is lower


def test_unknown_topic_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        compare.main(["--topic", "no_such_topic", "--parent", ".", "--change", "."])
    assert exc.value.code == 2
    assert "--topic" in capsys.readouterr().err


def test_every_topic_has_a_recorded_benchmark():
    for name, (layers, outputs) in topics.TOPICS.items():
        assert (ROOT / f"BENCH_{name}.json").is_file()
        assert callable(layers) and (outputs is None or callable(outputs))


def test_scalar_layers_report_the_recorded_metrics(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    layers, _ = topics.TOPICS["scalar"]
    got = layers(ROOT / "src")
    recorded = json.loads((ROOT / "BENCH_scalar.json").read_text())["layers"]["metrics"]
    assert list(got) == list(recorded)
    assert all(v > 0 for v in got.values())


def test_draws_times_the_decode_each_side_runs(monkeypatch):
    # the parent side of the draws topic times the binary search _draw_block used
    # before the closed form; both decode every pair alike
    monkeypatch.setattr(sys, "path", [str(ROOT / "src"), *sys.path])
    from pairjump import models

    offsets = models._pair_offsets(50)
    m = np.random.default_rng(3).integers(50 * 49 // 2, size=4096)
    closed = topics._decoder(models)
    search = topics._decoder(SimpleNamespace())
    assert closed is models._decode_pairs
    assert all(np.array_equal(a, b) for a, b in zip(closed(m, offsets), search(m, offsets)))


def test_out_keeps_finished_sections_when_a_later_step_fails(tmp_path, monkeypatch):
    def failing_workloads(*args):
        raise RuntimeError("a workload failed its checks")

    monkeypatch.setattr(compare, "compare_layers", lambda *args: {"repeats": 1, "metrics": {}})
    monkeypatch.setattr(compare, "compare_workloads", failing_workloads)
    out = tmp_path / "BENCH_scalar.json"
    with pytest.raises(RuntimeError, match="workload"):
        compare.main(["--topic", "scalar", "--parent", str(tmp_path), "--change", str(tmp_path),
                      "--out", str(out)])
    written = json.loads(out.read_text())
    assert written["layers"] == {"repeats": 1, "metrics": {}}
    assert "workloads" not in written


def test_workloads_report_the_seeds_whose_digests_differ(monkeypatch):
    # perfbench/run.py's output faked per checkout and seed: the change's
    # digest differs from the parent's for seed 2 only
    def fake_run(cmd, cwd=None):
        seed = int(cmd[cmd.index("--seed") + 1])
        digest = "d1" if cwd.name == "change" and seed == 2 else "d0"
        metrics = {"wall_s": {"value": 1.0 + seed, "unit": "s"}}
        return (f"workload x seed {seed} rounds 3 record r.json\n"
                f"digest {digest} e{seed}\n"
                + json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}))

    monkeypatch.setattr(compare, "_run", fake_run)
    sides = {"parent": Path("parent"), "change": Path("change")}
    got = compare.compare_workloads(sides, [1, 2, 3], ["ensemble", "chaos"], 1.0)
    for w in ("ensemble", "chaos"):
        assert got[w]["digests_differ"] == [2]
        assert got[w]["seeds"] == [1, 2, 3]
        assert list(got[w]["metrics"]) == ["wall_s"]
        assert got[w]["metrics"]["wall_s"]["parent_runs"] == [2.0, 3.0, 4.0]
