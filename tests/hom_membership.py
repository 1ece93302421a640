"""Hom-set membership for the categories of `abtqft.moncat`, kept beside
the tests that use it as an oracle; no production path asks it.

A morphism a -> b of `MorTensorCat(phi)` is its carrier: an x in phi's
source with a + phi(x) = b.  A morphism p -> q of a homotopy fiber is a
morphism of its stacked category between the stacked endpoints.
"""

from abtqft import fgab, moncat


def hom_contains(cat, a, b, x):
    """Whether x is a morphism a -> b of the category `cat` of phi."""
    if x.parent is not cat.mor_group:
        raise fgab.ParentMismatch("morphism carrier must live in A_mor")
    return a + cat.phi(x) == b


def fiber_hom_contains(fiber, p, q, x):
    """Whether x is a morphism p -> q of the homotopy fiber `fiber`; its
    endpoints must be objects, as for `HofibCat.hom`."""
    fiber.require_object(*p)
    fiber.require_object(*q)
    d = fiber._difference(p, q)
    return hom_contains(moncat.MorTensorCat(fiber.stacked),
                        d.parent.zero(), d, x)
