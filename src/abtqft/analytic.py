"""The analytic groups Z, R and U(1) with tolerance-based equality.

Circle values are stored additively as "turns": a real in [0, 1) standing
for exp(2*pi*i*t).  The exponential morphism R -> U(1) is then reduction
mod 1, and a lift of a circle value is any real with the right fractional
part.
"""

from __future__ import annotations

import math

INTEGERS = "Integers"
REALS = "Reals"
CIRCLE = "Circle"

DEFAULT_EPSILON = 1e-9


def wrap_unit(t):
    """Reduce a turn count to the half-open interval [0, 1)."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"turn count {t} is not finite")
    r = math.fmod(t, 1.0)
    if r < 0.0:
        r += 1.0
    if r >= 1.0:  # fmod rounding can land exactly on 1.0
        r = 0.0
    return r + 0.0  # normalize -0.0


def wrap_half(t):
    """Principal branch in (-1/2, 1/2]; exactly -1/2 maps to +1/2."""
    r = wrap_unit(t)
    return r + 0.0 if r <= 0.5 else r - 1.0


def circle_distance(a, b):
    """Distance between two turns on the circle."""
    return abs(wrap_half(a - b))


class AnalyticGroup:
    """One of Z, R, U(1), with an equality tolerance (0 for Z)."""

    def __init__(self, kind, epsilon=None):
        if kind not in (INTEGERS, REALS, CIRCLE):
            raise ValueError(f"unknown analytic group kind {kind!r}")
        self.kind = kind
        if kind == INTEGERS:
            self.epsilon = 0.0
        else:
            self.epsilon = DEFAULT_EPSILON if epsilon is None else float(epsilon)
        if self.epsilon < 0:
            raise ValueError("negative tolerance")

    def element(self, value):
        if self.kind == INTEGERS:
            if isinstance(value, float) and not value.is_integer():
                raise ValueError(f"{value} is not an integer")
            return int(value)
        if self.kind == CIRCLE:
            return wrap_unit(value)
        return float(value)

    def zero(self):
        return self.element(0)

    def add(self, a, b):
        return self.element(a + b)

    def neg(self, a):
        return self.element(-a)

    def eq(self, a, b):
        a, b = self.element(a), self.element(b)
        if self.kind == INTEGERS:
            return a == b
        if self.kind == CIRCLE:
            return circle_distance(a, b) <= self.epsilon
        return abs(a - b) <= self.epsilon

    def __repr__(self):
        return f"AnalyticGroup({self.kind}, eps={self.epsilon})"


class AnalyticMorphism:
    """Morphisms between analytic groups, by kind.

    Supported kinds: identity, zero, scale (by a rational factor),
    exp (Reals -> Circle, reduction mod 1), include (Integers -> Reals),
    and mod1 (Reals -> Circle precomposed with a rational scale).
    """

    def __init__(self, kind, source, target, factor=1):
        self.kind = kind
        self.source = source
        self.target = target
        self.factor = factor
        ok = {
            "identity": source.kind == target.kind,
            "zero": True,
            "scale": source.kind == target.kind,
            "exp": (source.kind, target.kind) == (REALS, CIRCLE),
            "include": (source.kind, target.kind) == (INTEGERS, REALS),
            "mod1": (source.kind, target.kind) == (REALS, CIRCLE),
        }
        if kind not in ok or not ok[kind]:
            raise ValueError(f"morphism kind {kind!r} incompatible with "
                             f"{source.kind} -> {target.kind}")

    def __call__(self, x):
        x = self.source.element(x)
        if self.kind == "identity":
            return self.target.element(x)
        if self.kind == "zero":
            return self.target.zero()
        if self.kind == "scale":
            return self.target.element(x * self.factor)
        if self.kind in ("exp", "mod1"):
            return self.target.element(wrap_unit(x * self.factor))
        if self.kind == "include":
            return self.target.element(float(x))
        raise AssertionError(self.kind)

    def lift(self, y):
        """A preimage of y, or None when no solution exists.

        For exp this is the canonical representative in [0, 1); together
        with __call__ this realizes "exp then lift returns the input up
        to an integer".
        """
        y = self.target.element(y)
        if self.kind == "identity":
            return self.source.element(y)
        if self.kind == "zero":
            return self.source.zero() if self.target.eq(y, self.target.zero()) else None
        if self.kind == "scale":
            if self.factor == 0:
                return self.source.zero() if self.target.eq(y, 0) else None
            x = y / self.factor
            if self.source.kind == INTEGERS:
                r = round(x)
                return r if self.target.eq(self(r), y) else None
            return self.source.element(x)
        if self.kind in ("exp", "mod1"):
            return wrap_unit(y) / self.factor
        if self.kind == "include":
            r = round(y)
            return r if self.target.eq(float(r), y) else None
        raise AssertionError(self.kind)

    def kernel_generators(self):
        """Generators of the kernel, or None when the kernel is the
        whole (continuous) source."""
        if self.kind == "identity":
            return []
        if self.kind == "zero":
            return None
        if self.kind == "scale":
            return [] if self.factor != 0 else None
        if self.kind in ("exp", "mod1"):
            return [1.0 / self.factor]
        if self.kind == "include":
            return []
        raise AssertionError(self.kind)

    def __repr__(self):
        return f"AnalyticMorphism({self.kind}: {self.source.kind} -> {self.target.kind})"


def exp_morphism(epsilon=None):
    """The exponential morphism R -> U(1) in turn convention."""
    return AnalyticMorphism("exp", AnalyticGroup(REALS, epsilon),
                            AnalyticGroup(CIRCLE, epsilon))
