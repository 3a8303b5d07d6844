"""The guard of ``rebaseline_verify.py``: a golden report may move only its rounding."""

import copy
import json

import pytest

from rebaseline_verify import SLACK, moves, refusals
from test_verify_golden import GOLDEN

REPORT = json.loads((GOLDEN / "verify_n8_s0.json").read_text())


def edited(edit):
    report = copy.deepcopy(REPORT)
    edit(report)
    return report


def swapped(report):
    checks = report["checks"]
    checks[0], checks[1] = checks[1], checks[0]


def test_an_identical_report_moves_nothing():
    assert refusals(REPORT, copy.deepcopy(REPORT)) == []
    assert moves(REPORT, copy.deepcopy(REPORT)) == []


def test_a_rounding_move_is_taken_and_listed():
    def nudge(report):
        report["checks"][0]["deviation"] += SLACK / 2

    new = edited(nudge)
    assert refusals(REPORT, new) == []
    name, old = REPORT["checks"][0]["name"], REPORT["checks"][0]["deviation"]
    assert moves(REPORT, new) == [(name, old, old + SLACK / 2)]


@pytest.mark.parametrize("edit", [
    lambda r: r["checks"][0].update(passed=not r["checks"][0]["passed"]),
    lambda r: r.update(passed=not r["passed"]),
    lambda r: r["checks"][0]["inputs"].update(n=r["checks"][0]["inputs"]["n"] + 1),
    lambda r: r["checks"][0].update(tolerance=r["checks"][0]["tolerance"] * 10),
    lambda r: r["checks"][0].update(name="renamed"),
    swapped,
    lambda r: r["checks"].pop(),
    lambda r: r["checks"].append(copy.deepcopy(r["checks"][0])),
    lambda r: r["checks"][0].update(deviation=r["checks"][0]["deviation"] + 1e-12),
    lambda r: r["checks"][0].update(deviation=float("nan")),
    lambda r: r["checks"][0].update(extra=0),
    lambda r: r["parameters"].update(seed=1),
    lambda r: r.update(schema="spinwire.verify/2"),
], ids=["passed", "report passed", "inputs", "tolerance", "name", "order", "dropped",
        "added", "deviation 1e-12", "deviation nan", "field", "parameters", "schema"])
def test_any_other_change_is_refused(edit):
    assert refusals(REPORT, edited(edit))
