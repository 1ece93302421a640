"""Characteristic numbers of closed oriented 4-manifolds, exactly.

Each entry records the Pontryagin number, the signature and the A-hat
genus as an exact rational.  Validation enforces the index-theoretic
identities: A-hat = -p1/24 and p1 = 3*signature for every closed oriented
entry, and for spin entries integrality and evenness of A-hat, hence
p1 divisible by 48 and p1/2 by 24.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources

from ..reader import node


class Closed4Entry:
    def __init__(self, name, integral_p1, signature, a_hat, spin):
        self.name = str(name)
        self.integral_p1 = int(integral_p1)
        self.signature = int(signature)
        self.a_hat = Fraction(a_hat)
        self.spin = bool(spin)

    def half_p1(self):
        return Fraction(self.integral_p1, 2)

    def to_json(self):
        return {"name": self.name, "integral_p1": self.integral_p1,
                "signature": self.signature, "a_hat": str(self.a_hat),
                "spin": self.spin}

    @classmethod
    def from_json(cls, obj):
        doc = node(obj)
        return cls(doc.field("name").str(), doc.field("integral_p1").int(),
                   doc.field("signature").int(), doc.field("a_hat").str(),
                   doc.field("spin", False).bool())


def validate_table(entries):
    """The (entry, condition, detail) list of index-arithmetic violations."""
    violations = []
    for e in entries:
        expected = Fraction(-e.integral_p1, 24)
        if e.a_hat != expected:
            violations.append((e.name, "a_hat = -p1/24",
                               f"a_hat={e.a_hat} but -p1/24={expected}"))
        if e.integral_p1 != 3 * e.signature:
            violations.append((e.name, "p1 = 3*signature",
                               f"p1={e.integral_p1}, 3*sig={3 * e.signature}"))
        if e.spin:
            if e.a_hat.denominator != 1:
                violations.append((e.name, "spin a_hat integral",
                                   f"a_hat={e.a_hat} not an integer"))
            elif e.a_hat.numerator % 2 != 0:
                violations.append((e.name, "spin a_hat even",
                                   f"a_hat={e.a_hat} odd"))
            if e.integral_p1 % 48 != 0:
                violations.append((e.name, "spin p1 = 0 mod 48",
                                   f"p1={e.integral_p1}"))
    return violations


_shipped = None


def shipped_table():
    """The table shipped with the package, re-validated at load."""
    global _shipped
    if _shipped is None:
        text = (resources.files("abtqft.invariants")
                .joinpath("data/spin4_table.json").read_text())
        entries = [Closed4Entry.from_json(r)
                   for r in node(json.loads(text)).list()]
        violations = validate_table(entries)
        if violations:
            raise ValueError(
                f"shipped 4-manifold table corrupt: {violations}")
        _shipped = {e.name: e for e in entries}
    return _shipped


def spin_entries():
    return [e for e in shipped_table().values() if e.spin]
