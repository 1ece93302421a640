"""Finitely generated abelian groups presented by integer relation matrices.

A group is Z^n modulo the sublattice spanned by the rows of its relation
matrix.  All questions (equality, kernels, pullbacks, solvability) reduce
to Smith normal form, so everything here is exact and decidable.
Relation and morphism matrices are `intmat` int rows (tuples of int
tuples), so no numpy is loaded.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from operator import mul

from . import intmat
from .analytic import as_int
from .reader import node


class ParentMismatch(ValueError):
    pass


class TargetMismatch(ValueError):
    pass


class IllDefinedMorphism(ValueError):
    pass


class FgAbGroup:
    """Z^n_generators / (row lattice of `relations`), whose int rows are
    each n_generators long.

    The normal form (invariant factors and free rank) is computed on first
    read, so a group that only holds relations is never eliminated.
    """

    def __init__(self, n_generators, relations=None, name=None):
        n = self.n_generators = as_int(n_generators, "generators")
        if n < 0:
            raise ValueError(f"generators: expected an integer >= 0, got {n}")
        self.relations, width = intmat.int_rows(
            () if relations is None else relations, (0, n), "relations")
        if width != n:
            raise ValueError(f"relations: expected rows of length {n}, got "
                             f"{width}")
        self.name = name

    @cached_property
    def _snf(self):
        # relations^T in Smith form: membership is per-coordinate divisibility
        return intmat._smith(
            intmat.transpose(self.relations, self.n_generators),
            len(self.relations))

    @cached_property
    def _mods(self):
        diag = self._snf.diag
        return diag + [0] * (self.n_generators - len(diag))

    @cached_property
    def invariant_factors(self):
        return tuple(d for d in self._mods if d >= 2)

    @cached_property
    def free_rank(self):
        return self._mods.count(0)

    # -- elements ---------------------------------------------------------

    def element(self, coords):
        return GroupElement(self, coords)

    def zero(self):
        return GroupElement(self, [0] * self.n_generators)

    def generator(self, i):
        coords = [0] * self.n_generators
        coords[i] = 1
        return GroupElement(self, coords)

    @cached_property
    def _key_rows(self):
        # the rows of U, read once per group
        return self._snf.u_rows()

    def canonical_key(self, coords):
        """Tuple identifying the element class (residues in SNF basis)
        of coordinates n_generators long."""
        ys = [sum(map(mul, row, coords)) for row in self._key_rows]
        return tuple([y % m if m else y for y, m in zip(ys, self._mods)])

    def key_add(self, k1, k2):
        """Add two canonical keys (classes add coordinatewise mod factors)."""
        return tuple((a + b) % m if m else a + b
                     for a, b, m in zip(k1, k2, self._mods))

    def first_column_outside(self, columns):
        """Index of the first of the int `columns`, each n_generators long,
        outside the relation lattice, or None: a column is inside iff each
        of its SNF-basis residues is zero."""
        for j, col in enumerate(columns):
            for row, m in zip(self._key_rows, self._mods):
                y = sum(map(mul, row, col))
                if y % m if m else y:
                    return j
        return None

    # -- structure --------------------------------------------------------

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.invariant_factors

    @property
    def is_finite(self):
        return self.free_rank == 0

    def order(self):
        if not self.is_finite:
            raise ValueError("infinite group")
        return math.prod(self.invariant_factors)

    @cached_property
    def _element_rows(self):
        # the rows of U_inv: element y in the SNF basis is U_inv y in
        # generator coordinates
        return self._snf.u_rows(inverse=True)

    def elements(self):
        """All elements of a finite group, as canonical representatives."""
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite group")
        ranges = [range(m) for m in self._mods]
        rows = self._element_rows
        for y in itertools.product(*ranges):
            yield GroupElement(self, [sum(map(mul, row, y)) for row in rows])

    def describe(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        label = self.name or self.describe()
        return f"FgAbGroup({label})"


class GroupElement:
    def __init__(self, parent, coords):
        coords = tuple([as_int(c, "coordinate") for c in coords])
        if len(coords) != parent.n_generators:
            raise ValueError(
                f"coordinate length {len(coords)} != {parent.n_generators}")
        self.parent = parent
        self.coords = coords

    def key(self):
        return self.parent.canonical_key(self.coords)

    def __add__(self, other):
        _require_same_parent(self, other)
        return GroupElement(self.parent,
                            [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        _require_same_parent(self, other)
        return GroupElement(self.parent,
                            [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return GroupElement(self.parent, [-a for a in self.coords])

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        _require_same_parent(self, other)
        return self.key() == other.key()

    def __repr__(self):
        return f"<{self.coords} in {self.parent!r}>"


def _require_same_parent(a, b):
    if a.parent is not b.parent:
        raise ParentMismatch(f"elements of {a.parent!r} vs {b.parent!r}")


class GroupMorphism:
    """Morphism given by an integer matrix on generator coordinates: int
    rows, one per target generator, each as long as the source's.

    Well-definedness (relations map into relations) is checked at
    construction and can only fail for hand-built matrices.
    """

    def __init__(self, source, target, matrix, name=None):
        self.source = source
        self.target = target
        m, n = target.n_generators, source.n_generators
        self.matrix, width = intmat.int_rows(matrix, (m, n), "matrix")
        if (len(self.matrix), width) != (m, n):
            raise ValueError(f"matrix: expected a {m}x{n} matrix, got "
                             f"{len(self.matrix)}x{width}")
        self.name = name
        images = [[sum(map(mul, row, r)) for row in self.matrix]
                  for r in source.relations]
        j = target.first_column_outside(images)
        if j is not None:
            raise IllDefinedMorphism(
                f"relation {list(source.relations[j])} maps to "
                f"{images[j]} outside the target relation lattice")

    @classmethod
    def _derived(cls, source, target, matrix):
        """Unchecked, as well defined by construction: the `kernel` and
        `image` inclusions map a preimage lattice into the target's; a
        pullback's difference and a fiber's stacked map have block-diagonal
        direct sums, so each column check is one their two parts passed."""
        f = cls.__new__(cls)
        f.source, f.target, f.matrix, f.name = source, target, matrix, None
        return f

    def __call__(self, x):
        if x.parent is not self.source:
            raise ParentMismatch("argument not in the source group")
        return GroupElement(self.target, [sum(map(mul, row, x.coords))
                                          for row in self.matrix])

    def then(self, other):
        """Diagrammatic composition: apply self first, then `other`."""
        if other.source is not self.target:
            raise TargetMismatch("composition mismatch")
        return GroupMorphism(self.source, other.target, intmat.matmul(
            other.matrix, self.matrix, self.source.n_generators))

    @cached_property
    def _target_solver(self):
        # Smith data of [matrix | target relation columns]: solving
        # f(x) = y means solving this system, decomposed once per morphism
        target = self.target
        return intmat._smith(
            intmat.hstack(self.matrix, intmat.transpose(
                target.relations, target.n_generators)),
            self.source.n_generators + len(target.relations))


def free_group(rank, name=None):
    return FgAbGroup(rank, None, name=name)


def cyclic_group(d, name=None):
    return FgAbGroup(1, [[d]], name=name)


def product_group(torsion):
    """Z/d1 + Z/d2 + ... in the obvious presentation."""
    n = len(torsion)
    return FgAbGroup(n, [[d if i == j else 0 for j in range(n)]
                         for i, d in enumerate(torsion)])


def direct_sum(G, H):
    """G + H; an element is the concatenated coordinates of its two parts."""
    n, m = G.n_generators, H.n_generators
    rel = (tuple(r + (0,) * m for r in G.relations)
           + tuple((0,) * n + r for r in H.relations))
    return FgAbGroup(n + m, rel)


def _preimage_lattice(M, n, T):
    """Generators of {x in Z^n : the int rows M take x into the relation
    lattice of the group T}, as vectors."""
    C = intmat.hstack(M, intmat.transpose(T.relations, T.n_generators))
    s = intmat._smith(C, n + len(T.relations))
    return tuple(v[:n] for v in intmat.kernel_vectors(s))


def kernel(f):
    """(K, incl) with incl: K -> source injective and image = ker f."""
    n = f.source.n_generators
    gens = _preimage_lattice(f.matrix, n, f.target)
    P = intmat.transpose(gens, n)
    K = FgAbGroup(len(gens), _preimage_lattice(P, len(gens), f.source))
    return K, GroupMorphism._derived(K, f.source, P)


def image(f):
    """(Img, incl) presenting the image subgroup of the target."""
    n = f.source.n_generators
    Img = FgAbGroup(n, _preimage_lattice(f.matrix, n, f.target))
    return Img, GroupMorphism._derived(Img, f.target, f.matrix)


def cokernel(f):
    """Target modulo the image: stack target relations with matrix columns."""
    rel = f.target.relations + intmat.transpose(f.matrix,
                                                f.source.n_generators)
    return FgAbGroup(f.target.n_generators, rel)


def is_isomorphism(f):
    """Isomorphic source and target, and f onto: a surjective endomorphism
    of a f.g. Z-module is injective (Matsumura, CRT, Thm 2.4)."""
    t = f.target.n_generators
    return (f.source.invariant_factors == f.target.invariant_factors
            and f.source.free_rank == f.target.free_rank
            and f._target_solver.diag[:t] == [1] * t)


def solve(f, y):
    """Some x with f(x) = y, or None.  Deterministic for fixed input.

    Works modulo the target relations: solves matrix·x + relations·c = y
    through the Smith decomposition, pinning free coordinates to zero.
    """
    if y.parent is not f.target:
        raise ParentMismatch("rhs not in the target group")
    snf = f._target_solver
    z = intmat.solve_vector(snf, y.coords)
    if z is None:
        return None
    return GroupElement(f.source, z[:f.source.n_generators])


class PullbackResult:
    """The fiber product of f: G -> T and g: H -> T, inside G + H.

    The direct sum and the difference map (x, y) -> f(x) - g(y) are built
    at once; their kernel, the fiber product (group, incl), on first read.
    """

    def __init__(self, f, g):
        self.factors = (f.source, g.source)
        self.direct_sum = direct_sum(f.source, g.source)
        self.difference = GroupMorphism._derived(
            self.direct_sum, f.target,
            intmat.hstack(f.matrix, tuple(tuple(-v for v in row)
                                          for row in g.matrix)))

    @cached_property
    def incl(self):
        return kernel(self.difference)[1]

    @property
    def group(self):
        return self.incl.source

    def pair(self, p):
        G, H = self.factors
        coords, n = self.incl(p).coords, G.n_generators
        return GroupElement(G, coords[:n]), GroupElement(H, coords[n:])

    def stack(self, x, y):
        """(x, y) as one element of the direct sum holding the pullback."""
        G, H = self.factors
        if x.parent is not G or y.parent is not H:
            raise ParentMismatch("pair not in the factors of the pullback")
        return GroupElement(self.direct_sum, x.coords + y.coords)


def pullback(f, g):
    """Fiber product of f and g over their common target.

    Presented as the kernel of the difference map (x, y) -> f(x) - g(y).
    """
    if f.target is not g.target:
        raise TargetMismatch("pullback of morphisms with different targets")
    return PullbackResult(f, g)


# -- JSON interchange ------------------------------------------------------

def group_from_json(obj, name=None):
    """The group of a {"generators": n, "relations": [[...], ...]} record."""
    doc = node(obj)
    return FgAbGroup(doc.field("generators").int(),
                     doc.field("relations", []).matrix(),
                     name or doc.field("name", "").str() or None)


def morphism_from_json(obj, source, target, name=None):
    """The morphism of a record's integer "matrix" from `source` to
    `target`."""
    doc = node(obj)
    return GroupMorphism(source, target, doc.field("matrix").matrix(),
                         name or doc.field("name", "").str() or None)
