"""Acceptance criteria, one test each, printing a PASS/FAIL line."""

import json
import math
from types import SimpleNamespace

import pytest

from abtqft import acceptance
from abtqft.acceptance import CRITERIA
from abtqft.invariants.chern_simons import _grid_sizes


@pytest.mark.parametrize("name,criterion", CRITERIA,
                         ids=[name.replace(" ", "-") for name, _ in CRITERIA])
def test_acceptance(name, criterion, capsys):
    ok, detail = criterion()
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, detail


def _closed_form_cs(refinement):
    # the theta midpoint rule's value, standing in for the quadrature
    half = math.pi / _grid_sizes(refinement)[1] / 2.0
    return -half / math.sin(half)


def _stub_criterion_9(monkeypatch, *reads):
    monkeypatch.setattr(acceptance, "cs_su2_quadrature", _closed_form_cs)
    monkeypatch.setattr(acceptance, "time",
                        SimpleNamespace(time=iter(reads).__next__))


def test_chern_simons_detail_is_reproducible(monkeypatch):
    # two runs of 1.7 s and 2.4 s print the same detail
    _stub_criterion_9(monkeypatch, 0.0, 1.7, 10.0, 12.4)
    first = acceptance.criterion_9_chern_simons()
    second = acceptance.criterion_9_chern_simons()
    assert first == second
    assert first[0] is True
    assert first[1].endswith("monotone, vol gap 7.93e-07")


def test_chern_simons_budget_still_checked(monkeypatch):
    _stub_criterion_9(monkeypatch, 0.0, 61.0)
    assert acceptance.criterion_9_chern_simons() == (
        False, "budget exceeded: 61.0s")


def test_failing_criteria_fail_the_suite(monkeypatch, capsys):
    from abtqft.cli import main

    def raises():
        raise ValueError("no table")

    monkeypatch.setattr(acceptance, "CRITERIA", [
        ("1 stub", lambda: (False, "off by one")), ("2 stub", raises)])
    assert main(["suite", "acceptance"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL 1 stub: off by one",
        "FAIL 2 stub: raised ValueError: no table"]
    assert main(["--format", "json", "suite", "acceptance"]) == 1
    assert json.loads(capsys.readouterr().out) == {"pass": False}
