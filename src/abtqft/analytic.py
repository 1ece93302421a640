"""Circle values as turns, and the integer gates.

Circle values are stored additively as "turns": a real in [0, 1) standing
for exp(2*pi*i*t).  The exponential morphism R -> U(1) is then reduction
mod 1, and a lift of a circle value is any real with the right fractional
part.
"""

from __future__ import annotations

import math
import reprlib
from numbers import Integral


class NonIntegralInvariant(ArithmeticError):
    """A value that must be an integer is not one.  Integrality is a
    theorem wherever it is asked for, so this means corrupt or
    inconsistent input data, and it halts rather than rounds."""


def as_int(x, where="value"):
    """`x` as a Python int.  The one integer gate: a bool or a non-integer
    (even an integral float) raises ValueError naming `where`."""
    if type(x) is int:
        return x
    if isinstance(x, bool) or not isinstance(x, Integral):
        raise ValueError(f"{where}: expected exact integer, got {x!r}")
    return int(x)


def as_float_exact_int(x, where="value"):
    """`x` as an `as_int` that a float holds exactly, at most 2**53 in
    size, so that adding it to a real keeps the real's fraction."""
    n = as_int(x, where)
    if not -2**53 <= n <= 2**53:
        raise ValueError(f"{where}: expected an integer of at most 2**53 in "
                         f"size, got {reprlib.repr(n)}")
    return n


def nearest_integer(x, tolerance, what):
    """The integer nearest `x`, which must lie within `tolerance` of it;
    `what` names the value in the error."""
    x = float(x)
    n = round(x)
    if abs(x - n) > tolerance:
        raise NonIntegralInvariant(
            f"{what} {x!r} is {abs(x - n):.3e} from the nearest integer "
            f"(tolerance {tolerance})")
    return n


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

