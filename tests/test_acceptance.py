"""Acceptance suite: every scenario must pass at its stated tolerance.

Each scenario runs end-to-end through the public API with the fixed master
seed and prints one summary line; assertion details (measured value, bound,
verdict) are attached to the failure message when a scenario does not pass.
Each scenario stands alone: A5 checks the library's fixed rate factor and A6
uses it without running A5. A7 checks each earlier scenario's report against
one fresh rerun to confirm byte-identical reports.
"""

import pytest

from pairjump.kinetic import RATE_FACTOR
from pairjump.verify import MASTER_SEED, SCENARIOS, run_scenario


def format_report(report):
    lines = [f"{report.scenario} {'PASS' if report.passed else 'FAIL'}: {report.title}"]
    for c in report.checks:
        verdict = "pass" if c.passed else "FAIL"
        lines.append(f"    [{verdict}] {c.name}: measured {c.measured:.6e}, "
                     f"bound {c.bound}")
    return "\n".join(lines)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "A6", "A7"])
def test_criterion(name):
    report = run_scenario(name)
    text = format_report(report)
    print(text)
    assert report.passed, text


def test_a6_does_not_run_a5(monkeypatch):
    def refuse(seed, workers):
        raise AssertionError("A6 ran A5")

    monkeypatch.setitem(SCENARIOS, "A5", (SCENARIOS["A5"][0], refuse))
    report = run_scenario("A6", MASTER_SEED + 1, fresh=True)
    assert report.scenario == "A6"
    assert report.details["rate_factor"] == RATE_FACTOR
    assert report.details["gain"]["clipped_cells"] == 0  # a smooth gain clips nothing
    assert report.details["gain"]["min_pre_clip"] > 0.0
