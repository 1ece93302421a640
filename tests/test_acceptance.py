"""Acceptance criteria, one test each, printing a PASS/FAIL line."""

import itertools
import json
import math
import re
from types import SimpleNamespace

import pytest

from abtqft import acceptance, intmat, moncat
from abtqft.acceptance import CRITERIA
from abtqft.invariants import BnrScene, Closed4Entry, psi, su_psi
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


# -- each criterion's FAIL lines, reached by faults in what it calls ---------

def _empty_hom(*objects):
    return moncat.HomSet(None, None)


def _fiber_without_homs(square):
    fiber = moncat.HofibCat(square)
    fiber.hom = _empty_hom
    return fiber


def _xi_shifting(part, after=0):
    """An XiFunctor factory whose `apply_object`, from its call `after`
    on, adds a generator to the value (part 0) or to the kernel
    coordinates (part 1)."""
    def make(fiber, fill):
        xi, calls = moncat.XiFunctor(fiber, fill), itertools.count()
        apply = xi.apply_object

        def shifted(p):
            out = list(apply(p))
            if next(calls) >= after:
                out[part] = out[part] + out[part].parent.generator(0)
            return tuple(out)

        xi.apply_object = shifted
        return xi
    return make


def _glued_residue_moved(scene, certify=False):
    result = psi(scene, certify)
    if not certify:
        result.residue += 1
    return result


def _odd_certificate(invariant):
    def odd(scene, **options):
        result = invariant(scene, **options)
        result.certificate = [{"difference": 1}]
        return result
    return odd


def _shifted_parity_flipped():
    # su_psi is called on a scene, then on its shift
    calls = itertools.count()

    def flipped(scene):
        result = su_psi(scene)
        if next(calls) % 2:
            result.residue ^= 1
        return result
    return flipped


def _row(number, patches, detail, label):
    return pytest.param(number, patches, detail, id=f"{number}-{label}")


FAULTS = [
    _row(1, {"intmat.smith": lambda M: intmat.smith(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]])}, "trial 0: U M V != D", "umv"),
    _row(1, {"intmat.as_int_matrix": lambda rows: intmat.as_int_matrix(
        [[2, 0, 0], [0, 3, 0], [0, 0, 0]]),
        "intmat.smith": lambda M: SimpleNamespace(
            U=intmat.identity(3), D=M, V=intmat.identity(3))},
        "trial 0: chain broken [2, 3, 0]", "chain"),
    _row(1, {"intmat.det": lambda M: 2},
         "trial 0: transform not unimodular", "unimodular"),
    _row(2, {"moncat.MorTensorCat": lambda phi: SimpleNamespace(
        hom=_empty_hom)}, re.compile(r"trial 0: empty vs \d+"), "empty"),
    _row(2, {"testing.brute_hom_table": lambda phi: ({}, [])},
         re.compile(r"trial 0: coset mismatch at <.*>,<.*>"), "coset"),
    _row(3, {"testing.brute_fiber_objects": lambda square: set()},
         "trial 0: object sets differ", "objects"),
    _row(3, {"moncat.HofibCat": _fiber_without_homs},
         "trial 0: missed solutions", "missed"),
    _row(3, {"testing.brute_connecting_buckets": lambda square: {}},
         "trial 0: solution coset mismatch", "coset"),
    _row(4, {"moncat.xi_equivalence_by_enumeration": lambda s, f: None},
         re.compile("trial 0: (True|False) vs None vs (True|False)"),
         "disagree"),
    _row(4, {"moncat.xi_is_equivalence": lambda s, f: True,
             "moncat.xi_equivalence_by_enumeration": lambda s, f: True,
             "fgab.is_isomorphism": lambda f: True},
         "degenerate sample: 50/50 equivalences", "degenerate"),
    _row(5, {"moncat.XiFunctor": lambda fiber, fill: SimpleNamespace(
        kernel_incl=SimpleNamespace(matrix=((12,),)))},
        "kernel not 24Z: ((12,),)", "kernel"),
    _row(5, {"moncat.XiFunctor": lambda fiber, fill: SimpleNamespace(
        kernel_incl=SimpleNamespace(matrix=((24,),)),
        kernel_group=SimpleNamespace(invariant_factors=(), free_rank=0))},
        "kernel group is not infinite cyclic", "finite"),
    _row(5, {"moncat.XiFunctor": _xi_shifting(0)},
         re.compile(r"Xi\((-?\d+),(-?\d+)\) = \(-?\d+,\), expected -?\d+"),
         "value"),
    _row(5, {"moncat.XiFunctor": _xi_shifting(1)},
         "kernel coordinates wrong", "coordinates"),
    _row(5, {"moncat.XiFunctor": _xi_shifting(1, after=100)},
         "generator -3 not hit", "onto"),
    _row(6, {"check_stokes": lambda W, omega: (0.0, 1.0)},
         "trial 0: stokes gap 1.0", "stokes"),
    _row(6, {"holonomy_curvature_gap": lambda conn, chain: 0.5},
         "trial 0: holonomy gap 0.5", "holonomy"),
    _row(7, {"tangent_connection": lambda surface: SimpleNamespace(
        chern_number=lambda: 7)}, "icosahedron: chern 7 != 2", "chern"),
    _row(8, {"validate_table": lambda entries: [("K3", "c", "d")]},
         "violations: [('K3', 'c', 'd')]", "violations"),
    _row(8, {"shipped_table": lambda: {
        "K3": Closed4Entry("K3", 24, 8, "-1", False)}},
        "K3 half-p1 12", "k3"),
    _row(9, {"cs_su2_quadrature": lambda refinement: 0.5},
         "|cs(4)| = 0.5", "unit"),
    _row(9, {"cs_su2_quadrature": lambda refinement: -1.0},
         "not monotone: [0.0, 0.0, 0.0, 0.0]", "monotone"),
    _row(9, {"cs_su2_quadrature": _closed_form_cs,
             "sphere_volume_quadrature": lambda refinement: 0.0},
         f"volume gap {2.0 * math.pi ** 2}", "volume"),
    _row(10, {"psi": lambda scene, certify=False: SimpleNamespace(
        integer_value=2)}, "generator value 2", "generator"),
    _row(10, {"psi": lambda scene, certify=False: SimpleNamespace(
        integer_value=1, residue=2)},
        "residue 2 does not generate Z/24", "residue"),
    _row(10, {"psi": lambda scene, certify=False: psi(BnrScene.s3_lie(),
                                                       certify)},
         "K3 gluing: 1", "gluing"),
    _row(10, {"psi": _glued_residue_moved}, "gluing changed the residue",
         "glued-residue"),
    _row(10, {"half_p1_integral": lambda w4, nabla, glue: 0.5},
         "factorization not bit-identical", "factorization"),
    _row(10, {"psi": _odd_certificate(psi)}, "certificate differences {1}",
         "certificate"),
    _row(11, {"su_psi": _odd_certificate(su_psi)},
         "trial 0: odd difference", "certificate"),
    _row(11, {"su_psi": lambda scene: SimpleNamespace(
        certificate=[], integer_value=0, residue=0)},
        re.compile("trial 0: shift by [123] broke linearity"), "linearity"),
    _row(11, {"su_psi": _shifted_parity_flipped()},
         "trial 0: shift parity wrong", "parity"),
]


@pytest.mark.parametrize("number, patches, detail", FAULTS)
def test_each_fault_fails_its_criterion(monkeypatch, capsys, number, patches,
                                        detail):
    # `patches` replace names that the criterion reads from `acceptance`;
    # a dotted name replaces one attribute of the module it reads
    from abtqft.cli import main
    for dotted, value in patches.items():
        owner, _, name = dotted.rpartition(".")
        if owner:
            module = getattr(acceptance, owner)
            value = SimpleNamespace(**{**vars(module), name: value})
            name = owner
        monkeypatch.setattr(acceptance, name, value)
    name, criterion = CRITERIA[number - 1]
    monkeypatch.setattr(acceptance, "CRITERIA", [(name, criterion)])
    # `suite acceptance` exits 1 exactly when `run_all` returns False
    assert main(["suite", "acceptance"]) == 1
    pattern = detail.pattern if isinstance(detail, re.Pattern) else (
        re.escape(detail))
    out = capsys.readouterr().out
    assert re.fullmatch(f"FAIL {re.escape(name)}: {pattern}\n", out), out
