"""Acceptance suite: every scenario must pass at its stated tolerance.

Each scenario runs end-to-end through the public API with the fixed master
seed and prints one summary line; assertion details (measured value, bound,
verdict) are attached to the failure message when a scenario does not pass.
The scenarios are ordered: A6 reuses the rate factor selected by A5, and A7
checks each earlier scenario's report against one fresh rerun to confirm
byte-identical reports.
"""

import pytest

from pairjump.verify import run_scenario


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
