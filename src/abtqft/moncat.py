"""Symmetric monoidal categories built from morphisms of abelian groups.

A morphism phi: A_mor -> A_ob yields a category whose objects are the
elements of A_ob and whose morphisms a -> b are the solutions x of
a + phi(x) = b, composed by addition.  Commutative squares of group
morphisms induce monoidal functors; their homotopy (essential) fibers
admit an explicit description as a fiber product, and a diagonal fill
lambda induces a comparison functor onto the kernel category which is an
equivalence exactly when the source's vertical morphism is invertible.

Squares and fills are checked on the difference of composite matrices,
column by column in the target lattice.  A fiber's object group, the
fiber product, and a hom-set's kernel are taken on first read: hom-sets
and Xi never need the first, nor an empty hom-set the second.
"""

from __future__ import annotations

from functools import cached_property

from . import fgab, intmat
from .fgab import GroupMorphism, kernel, pullback, solve, is_isomorphism


class TriangleMismatch(ValueError):
    pass


class HomSet:
    """Coset presentation of a hom-set: particular + kernel of `category`.

    `kernel_group` and `kernel_incl` (read on first use) present the
    subgroup of A_mor acting simply transitively on the hom-set; the coset
    is never enumerated unless asked, so infinite hom-sets are first-class.
    """

    def __init__(self, particular, category):
        self.particular = particular
        self.category = category

    kernel_group = property(lambda self: self.category.kernel_pair[0])
    kernel_incl = property(lambda self: self.category.kernel_pair[1])

    @property
    def is_empty(self):
        return self.particular is None

    @property
    def kernel_generators(self):
        return [self.kernel_incl(self.kernel_group.generator(i))
                for i in range(self.kernel_group.n_generators)]

    def elements(self):
        """Enumerate the coset (kernel subgroup must be finite)."""
        if self.is_empty:
            return
        if self.kernel_group.is_trivial:
            yield self.particular
            return
        for k in self.kernel_group.elements():
            yield self.particular + self.kernel_incl(k)

    def element_keys(self):
        return {x.key() for x in self.elements()}


class MorTensorCat:
    """The symmetric monoidal category of a group morphism phi.

    Objects are elements of phi's target and a morphism a -> b is its
    carrier: an x in phi's source with a + phi(x) = b, which is what
    `hom_contains` tests.  `hom` presents Hom(a, b) as a coset.
    Composition and tensor add carriers (and objects), the unit is zero and
    the dual of an object is its negative, so the category is a groupoid.
    """

    def __init__(self, phi):
        self.phi = phi
        self.obj_group = phi.target
        self.mor_group = phi.source

    @cached_property
    def kernel_pair(self):
        return kernel(self.phi)

    def hom(self, a, b):
        """Hom(a, b) as a coset; empty iff b - a misses the image of phi."""
        if a.parent is not self.obj_group or b.parent is not self.obj_group:
            raise fgab.ParentMismatch("objects must live in the object group")
        return HomSet(solve(self.phi, b - a), self)

    def hom_contains(self, a, b, x):
        if x.parent is not self.mor_group:
            raise fgab.ParentMismatch("morphism carrier must live in A_mor")
        return a + self.phi(x) == b


class CommSquare:
    """A morphism in the arrow category of abelian groups.

    Vertical legs f_mor, f_ob over horizontal phi_H, phi_G; the square
    must commute, which is checked on construction.
    """

    def __init__(self, phi_H, phi_G, f_ob, f_mor):
        if f_ob.source is not phi_H.target or f_ob.target is not phi_G.target:
            raise fgab.TargetMismatch("f_ob does not connect the object groups")
        if f_mor.source is not phi_H.source or f_mor.target is not phi_G.source:
            raise fgab.TargetMismatch("f_mor does not connect the morphism groups")
        n = phi_H.source.n_generators
        gap = intmat.difference(intmat.matmul(f_ob.matrix, phi_H.matrix, n),
                                intmat.matmul(phi_G.matrix, f_mor.matrix, n))
        if phi_G.target.first_column_outside(gap, n) is not None:
            raise fgab.IllDefinedMorphism("square does not commute")
        self.phi_H = phi_H
        self.phi_G = phi_G
        self.f_ob = f_ob
        self.f_mor = f_mor


class HofibCat:
    """Homotopy fiber of the functor of a commutative square.

    Objects are pairs (g, h) with phi_G(g) = f_ob(h); the pair structure
    is the fiber product of phi_G and f_ob.  Morphisms (g,h) -> (g',h')
    are the x in H_mor solving f_mor(x) = g' - g and phi_H(x) = h' - h.
    """

    def __init__(self, square):
        self.square = square
        self.pullback = pullback(square.phi_G, square.f_ob)
        # the two constraints stacked into one morphism into the pullback's
        # G_mor + H_ob: hom-sets are those of its category on stacked pairs
        self.stacked = GroupMorphism._derived(
            square.phi_H.source, self.pullback.direct_sum,
            square.f_mor.matrix + square.phi_H.matrix)
        self._stacked_cat = MorTensorCat(self.stacked)

    @property
    def object_group(self):
        return self.pullback.group

    def unit(self):
        return (self.square.phi_G.source.zero(), self.square.phi_H.target.zero())

    def is_object(self, g, h):
        if g.parent is not self.square.phi_G.source:
            raise fgab.ParentMismatch("g must live in G_mor")
        if h.parent is not self.square.phi_H.target:
            raise fgab.ParentMismatch("h must live in H_ob")
        return self.square.phi_G(g) == self.square.f_ob(h)

    def require_object(self, g, h):
        if not self.is_object(g, h):
            raise ValueError(f"({g!r}, {h!r}) is not an object: "
                             "phi_G(g) != f_ob(h)")

    def _difference(self, p, q):
        # q - p stacked; stacking is linear on coordinates, so this equals
        # the difference of the stacked endpoints
        return self.pullback.stack(q[0] - p[0], q[1] - p[1])

    def hom(self, p, q):
        """Solutions of the two simultaneous constraints, as a coset."""
        self.require_object(*p)
        self.require_object(*q)
        d = self._difference(p, q)
        return self._stacked_cat.hom(d.parent.zero(), d)

    def hom_contains(self, p, q, x):
        self.require_object(*p)
        self.require_object(*q)
        d = self._difference(p, q)
        return self._stacked_cat.hom_contains(d.parent.zero(), d, x)


class DiagonalFill:
    """A diagonal lambda: H_ob -> G_mor splitting the square into two
    commuting triangles: f_mor = lambda . phi_H and f_ob = phi_G . lambda."""

    def __init__(self, square, lam):
        if lam.source is not square.phi_H.target:
            raise fgab.TargetMismatch("lambda must start at H_ob")
        if lam.target is not square.phi_G.source:
            raise fgab.TargetMismatch("lambda must end at G_mor")
        n_mor, n_ob = square.phi_H.source.n_generators, lam.source.n_generators
        upper = intmat.difference(square.f_mor.matrix, intmat.matmul(
            lam.matrix, square.phi_H.matrix, n_mor))
        if lam.target.first_column_outside(upper, n_mor) is not None:
            raise TriangleMismatch("f_mor != lambda . phi_H")
        lower = intmat.difference(square.f_ob.matrix, intmat.matmul(
            square.phi_G.matrix, lam.matrix, n_ob))
        if square.f_ob.target.first_column_outside(lower, n_ob) is not None:
            raise TriangleMismatch("f_ob != phi_G . lambda")
        self.square = square
        self.lam = lam


class XiFunctor:
    """The comparison functor from the homotopy fiber to ker(phi_G)^tensor.

    Acts on objects as (g, h) -> g - lambda(h); the value provably lies in
    the kernel of phi_G, which solving for its kernel coordinates re-checks
    on every application.  The target category is discrete, so every
    morphism goes to an identity: objects joined by a morphism of the
    fiber have equal images.
    """

    def __init__(self, fiber, fill):
        if fill.square is not fiber.square:
            raise TriangleMismatch("fill belongs to a different square")
        self.fiber = fiber
        self.fill = fill
        self.kernel_group, self.kernel_incl = kernel(fiber.square.phi_G)

    @property
    def enumerated(self):
        """The groups `xi_equivalence_by_enumeration` enumerates, by name."""
        return {"fiber objects": self.fiber.object_group,
                "H_mor": self.fiber.square.phi_H.source,
                "ker phi_G": self.kernel_group}

    def apply_object(self, p):
        g, h = p
        self.fiber.require_object(g, h)
        value = g - self.fill.lam(h)
        coords = solve(self.kernel_incl, value)
        if coords is None:
            raise ArithmeticError("Xi value escaped the kernel of phi_G")
        return value, coords


def xi_is_equivalence(square, fill):
    """Xi_lambda is an equivalence iff phi_H is an isomorphism."""
    if fill.square is not square:
        raise TriangleMismatch("fill belongs to a different square")
    return is_isomorphism(square.phi_H)


def xi_equivalence_by_enumeration(square, fill):
    """Directly decide whether Xi is an equivalence on finite instances.

    Essential surjectivity plus fully-faithfulness, checked by brute
    force.  Translation invariance reduces hom-set checks over all object
    pairs to checks over single objects (the differences).
    """
    fiber = HofibCat(square)
    xi = XiFunctor(fiber, fill)
    if not all(G.is_finite for G in xi.enumerated.values()):
        raise ValueError("enumeration oracle needs finite groups")

    # essential surjectivity: every kernel element is an object's image
    for k in xi.kernel_group.elements():
        g = xi.kernel_incl(k)
        h = square.phi_H.target.zero()
        if not fiber.is_object(g, h):
            return False
        value, _ = xi.apply_object((g, h))
        if value != g:
            return False

    # fully faithful: difference objects with trivial Xi image must have
    # exactly one connecting morphism from the unit; nontrivial image, none
    from .testing import brute_connecting_buckets
    buckets = brute_connecting_buckets(square)
    lam = fill.lam
    G_mor = square.phi_G.source
    for p in fiber.object_group.elements():
        dg, dh = fiber.pullback.pair(p)
        n_solutions = len(buckets.get((dg.key(), dh.key()), ()))
        xi_trivial = dg - lam(dh) == G_mor.zero()
        if xi_trivial and n_solutions != 1:
            return False
        if not xi_trivial and n_solutions != 0:
            return False
    return True


def mirror_exp_square():
    """Exact integral mirror of the analytic square (id_R, exp):
    H = id_Z over G = (Z -> Z/24), with the identity diagonal fill.

    Returns (square, fill).
    """
    H_mor = fgab.free_group(1, "Z")
    H_ob = fgab.free_group(1, "Z")
    G_mor = fgab.free_group(1, "Z")
    G_ob = fgab.cyclic_group(24, "Z/24")
    phi_H = GroupMorphism(H_mor, H_ob, [[1]], name="id")
    phi_G = GroupMorphism(G_mor, G_ob, [[1]], name="proj")
    f_ob = GroupMorphism(H_ob, G_ob, [[1]], name="proj")
    f_mor = GroupMorphism(H_mor, G_mor, [[1]], name="id")
    square = CommSquare(phi_H, phi_G, f_ob, f_mor)
    fill = DiagonalFill(square, GroupMorphism(H_ob, G_mor, [[1]], name="lambda"))
    return square, fill
