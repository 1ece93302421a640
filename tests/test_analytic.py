import math
import re

import pytest
from hypothesis import given, strategies as st

from abtqft.analytic import (NonIntegralInvariant, as_float_exact_int,
                             circle_distance, nearest_integer, wrap_half,
                             wrap_unit)
from abtqft.discrete.connections import CHERN_TOLERANCE
from abtqft.discrete.surfaces import LIFT_TOLERANCE
from abtqft.invariants.psi import PSI_TOLERANCE, SU_TOLERANCE


@given(st.floats(-100, 100))
def test_wrap_unit_range(x):
    r = wrap_unit(x)
    assert 0.0 <= r < 1.0
    assert circle_distance(r, x) < 1e-9


@given(st.floats(-100, 100))
def test_wrap_half_range(x):
    r = wrap_half(x)
    assert -0.5 < r <= 0.5
    assert abs((x - r) - round(x - r)) < 1e-9


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_wrap_rejects_non_finite(x):
    for wrap in (wrap_unit, wrap_half):
        with pytest.raises(ValueError, match="not finite"):
            wrap(x)


def test_wrap_half_branch_at_minus_one_half():
    # exactly -1/2 takes the +1/2 branch
    assert wrap_half(-0.5) == 0.5
    assert wrap_half(0.5) == 0.5


def test_no_negative_zero():
    assert str(wrap_unit(-0.0)) == "0.0"
    assert str(wrap_half(-0.0)) == "0.0"


def test_circle_equality():
    assert circle_distance(0.999999999999, 0.0) <= 1e-9
    assert not circle_distance(0.4, 0.6) <= 1e-9
    assert circle_distance(wrap_unit(0.7 + 0.6), 0.3) <= 1e-9


@pytest.mark.parametrize("tolerance", [PSI_TOLERANCE, SU_TOLERANCE,
                                       CHERN_TOLERANCE, LIFT_TOLERANCE])
@pytest.mark.parametrize("n", [0, 7, -24])
def test_nearest_integer_gate_boundary(tolerance, n):
    for sign in (1, -1):
        inside = n + sign * tolerance * (1 - 1e-3)
        assert nearest_integer(inside, tolerance, "x") == n
        assert type(nearest_integer(inside, tolerance, "x")) is int
        outside = n + sign * tolerance * (1 + 1e-3)
        with pytest.raises(NonIntegralInvariant,
                           match=re.escape(f"x {outside!r} is ")):
            nearest_integer(outside, tolerance, "x")


def test_float_exact_gate_boundary():
    # every integer up to 2**53 in size is a float exactly; past it not
    for n in (0, 2**53, -2**53):
        assert as_float_exact_int(n, "k") == n == float(n)
    for n in (2**53 + 1, -2**53 - 1):
        with pytest.raises(ValueError, match=re.escape(
                f"k: expected an integer of at most 2**53 in size, got {n}")):
            as_float_exact_int(n, "k")
    for x in (True, 2.0, "1"):
        with pytest.raises(ValueError, match="k: expected exact integer"):
            as_float_exact_int(x, "k")
