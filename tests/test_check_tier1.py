"""The CI gate (.github/check_tier1.py) passes a tier-1 run only when its
one failing test is acceptance criterion 6. It is loaded by path and run on
JUnit reports written here."""

import importlib.util
from pathlib import Path

import pytest

GATE = Path(__file__).resolve().parents[1] / ".github" / "check_tier1.py"
CRITERION_6 = ("tests.test_acceptance", "test_criterion_6_ensemble_boundary_oracle")
OTHER = ("tests.test_cli", "test_version")


def _load_gate():
    spec = importlib.util.spec_from_file_location("check_tier1", GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _junit(path, cases):
    """A JUnit report of (classname, name, outcome) cases, outcome being
    "passed", "failure", "error" or "skipped"."""
    body = "".join(
        f'<testcase classname="{classname}" name="{name}" time="0.01">'
        + ("" if outcome == "passed" else f'<{outcome} message="m">text</{outcome}>')
        + "</testcase>"
        for classname, name, outcome in cases)
    path.write_text('<?xml version="1.0" encoding="utf-8"?><testsuites>'
                    f'<testsuite name="pytest">{body}</testsuite></testsuites>')
    return str(path)


@pytest.mark.parametrize("cases, expected", [
    ([(*CRITERION_6, "failure"), (*OTHER, "passed")], 0),
    ([(*CRITERION_6, "passed"), (*OTHER, "passed")], 1),
    ([(*CRITERION_6, "skipped"), (*OTHER, "passed")], 1),
    ([(*OTHER, "passed")], 1),
    ([(*CRITERION_6, "failure"), (*OTHER, "failure")], 1),
    ([(*CRITERION_6, "failure"), (*OTHER, "error")], 1),
    ([(*CRITERION_6, "error"), (*OTHER, "passed")], 1),
], ids=["only-criterion-6-failed", "criterion-6-passed", "criterion-6-skipped",
        "criterion-6-missing", "a-second-failure", "a-second-error", "criterion-6-errored"])
def test_gate_passes_only_when_criterion_6_alone_fails(cases, expected, tmp_path, capsys):
    gate = _load_gate()
    assert gate.main(["check_tier1.py", _junit(tmp_path / "junit.xml", cases)]) == expected
    out = capsys.readouterr().out
    assert (out == "") == (expected == 0)
