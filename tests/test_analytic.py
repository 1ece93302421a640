import math

import pytest
from hypothesis import given, strategies as st

from abtqft import analytic
from abtqft.analytic import (AnalyticGroup, AnalyticMorphism, CIRCLE,
                             INTEGERS, REALS, circle_distance, wrap_half,
                             wrap_unit, exp_morphism)


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
    U1 = AnalyticGroup(CIRCLE, epsilon=1e-9)
    assert U1.eq(0.999999999999, 0.0)
    assert not U1.eq(0.4, 0.6)
    assert U1.eq(U1.add(0.7, 0.6), 0.3)


def test_integers_exact():
    Zg = AnalyticGroup(INTEGERS)
    assert Zg.epsilon == 0.0
    assert Zg.eq(3, 3)
    assert not Zg.eq(3, 4)
    with pytest.raises(ValueError):
        Zg.element(2.5)


def test_exp_lift_roundtrip():
    exp = exp_morphism()
    for x in (-2.3, -1.0, 0.0, 0.25, 0.5, 7.9):
        lifted = exp.lift(exp(x))
        # returns the input up to an integer
        gap = x - lifted
        assert abs(gap - round(gap)) <= 1e-9
    assert exp.kernel_generators() == [1.0]


def test_inclusion_and_scale():
    include = AnalyticMorphism("include", AnalyticGroup(INTEGERS),
                               AnalyticGroup(REALS))
    assert include(3) == 3.0
    assert include.lift(3.0) == 3
    assert include.lift(3.5) is None

    scale = AnalyticMorphism("scale", AnalyticGroup(REALS),
                             AnalyticGroup(REALS), factor=0.5)
    assert scale(4.0) == 2.0
    assert scale.lift(2.0) == 4.0


def test_zero_morphism():
    zero = AnalyticMorphism("zero", AnalyticGroup(REALS),
                            AnalyticGroup(REALS))
    assert zero(17.0) == 0.0
    assert zero.lift(0.0) == 0.0
    assert zero.lift(1.0) is None
    assert zero.kernel_generators() is None


def test_bad_kind_combinations():
    with pytest.raises(ValueError):
        AnalyticMorphism("exp", AnalyticGroup(CIRCLE), AnalyticGroup(REALS))
    with pytest.raises(ValueError):
        AnalyticGroup("Quaternions")
