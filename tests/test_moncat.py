import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from abtqft import fgab, intmat, moncat, testing
from abtqft.moncat import (CommSquare, DiagonalFill, MorTensorCat,
                           mirror_exp_square)

from hom_membership import fiber_hom_contains, hom_contains


@pytest.fixture
def Z():
    return fgab.free_group(1, "Z")


# -- hom sets ----------------------------------------------------------------

def test_hom_discrete_category(Z):
    # the category of a group alone: only identities
    cat = MorTensorCat(fgab.GroupMorphism(fgab.FgAbGroup(0), Z, [[]]))
    a, b = Z.element([3]), Z.element([4])
    assert cat.hom(a, b).is_empty
    same = cat.hom(a, Z.element([3]))
    assert not same.is_empty
    assert list(same.elements()) == [same.particular]


def test_hom_times2(Z):
    cat = MorTensorCat(fgab.GroupMorphism(Z, Z, [[2]]))
    hs = cat.hom(Z.element([0]), Z.element([4]))
    assert hs.particular.coords == (2,)
    assert hs.kernel_generators == []
    assert cat.hom(Z.element([0]), Z.element([3])).is_empty


def test_hom_projection_coset(Z):
    Z2 = fgab.cyclic_group(2)
    cat = MorTensorCat(fgab.GroupMorphism(Z, Z2, [[1]]))
    a, b = Z2.element([0]), Z2.element([1])
    hs = cat.hom(a, b)
    assert hs.particular.coords == (1,)
    assert [g.coords for g in hs.kernel_generators] == [(2,)]
    # the coset is 1 + 2Z
    for x in (-3, 1, 5):
        assert hom_contains(cat, a, b, Z.element([x]))
    for x in (-2, 0, 4):
        assert not hom_contains(cat, a, b, Z.element([x]))


def test_hom_identity_always_present():
    rng = random.Random(3)
    for _ in range(10):
        A_mor = testing.random_finite_group(rng)
        A_ob = testing.random_finite_group(rng)
        cat = MorTensorCat(testing.random_morphism(rng, A_mor, A_ob))
        for a in list(A_ob.elements())[:5]:
            assert not cat.hom(a, a).is_empty
            assert hom_contains(cat, a, a, A_mor.zero())


def test_hom_oracle_small():
    rng = random.Random(4)
    for _ in range(8):
        A_mor = testing.random_finite_group(rng, max_order=100)
        A_ob = testing.random_finite_group(rng, max_order=100)
        phi = testing.random_morphism(rng, A_mor, A_ob)
        cat = MorTensorCat(phi)
        table, _ = testing.brute_hom_table(phi)
        for a in A_ob.elements():
            for b in A_ob.elements():
                hs = cat.hom(a, b)
                brute = table.get((a.key(), b.key()), set())
                if hs.is_empty:
                    assert not brute
                else:
                    assert hs.element_keys() == brute


# -- composition, tensor, dual -----------------------------------------------

# A morphism a -> b is its carrier x, and `hom_contains` (in
# `hom_membership.py`) is the membership test; composition and tensor add
# carriers, so the category laws are closure of that test under sums.

def test_compose_examples(Z):
    cat = MorTensorCat(fgab.GroupMorphism(Z, Z, [[2]]))
    a, b, c = Z.element([0]), Z.element([4]), Z.element([10])
    x1, x2 = Z.element([2]), Z.element([3])
    assert hom_contains(cat, a, b, x1) and hom_contains(cat, b, c, x2)
    assert (x1 + x2).coords == (5,)
    assert hom_contains(cat, a, c, x1 + x2)
    # identity laws
    assert hom_contains(cat, a, a, Z.zero())
    assert hom_contains(cat, b, b, Z.zero())
    assert Z.zero() + x1 == x1 == x1 + Z.zero()


def test_compose_residues(Z):
    Z24 = fgab.cyclic_group(24)
    cat = MorTensorCat(fgab.GroupMorphism(Z, Z24, [[1]]))
    a, b, c = Z24.element([0]), Z24.element([7]), Z24.element([3])
    x1, x2 = Z.element([7]), Z.element([20])
    assert hom_contains(cat, a, b, x1) and hom_contains(cat, b, c, x2)
    assert (x1 + x2).coords == (27,)
    assert hom_contains(cat, a, c, x1 + x2)


def test_compose_associativity(Z):
    cat = MorTensorCat(fgab.GroupMorphism(Z, Z, [[1]]))
    objs = [Z.element([i]) for i in range(4)]
    xs = [Z.element([1])] * 3
    for i in range(3):
        assert hom_contains(cat, objs[i], objs[i + 1], xs[i])
    left = (xs[0] + xs[1]) + xs[2]
    right = xs[0] + (xs[1] + xs[2])
    assert left == right
    assert hom_contains(cat, objs[0], objs[3], left)


def test_non_composable(Z):
    cat = MorTensorCat(fgab.GroupMorphism(Z, Z, [[2]]))
    # 0 -> 4 carried by 2 and 5 -> 7 carried by 1 do not meet, and the sum
    # of their carriers does not join the outer ends 0 -> 7
    x1, x2 = Z.element([2]), Z.element([1])
    assert hom_contains(cat, Z.element([0]), Z.element([4]), x1)
    assert hom_contains(cat, Z.element([5]), Z.element([7]), x2)
    assert not hom_contains(cat, Z.element([0]), Z.element([7]), x1 + x2)
    # 2 is not a morphism 0 -> 5
    assert not hom_contains(cat, Z.element([0]), Z.element([5]), x1)


def test_tensor_and_dual(Z):
    cat = MorTensorCat(fgab.GroupMorphism(Z, Z, [[2]]))
    # the unit is zero, the tensor of objects their sum, the dual the negative
    assert Z.zero() + Z.zero() == Z.zero()
    assert -Z.element([5]) == Z.element([-5])
    Z24 = fgab.cyclic_group(24)
    assert -Z24.element([7]) == Z24.element([17])
    # dual is an inverse for the tensor product: the identity joins
    # a tensor a* to the unit
    a = Z.element([5])
    assert hom_contains(cat, a + -a, Z.zero(), Z.zero())


def test_tensor_morphisms(Z):
    cat = MorTensorCat(fgab.GroupMorphism(Z, Z, [[2]]))
    a1, b1, x1 = Z.element([0]), Z.element([2]), Z.element([1])
    a2, b2, x2 = Z.element([1]), Z.element([5]), Z.element([2])
    assert hom_contains(cat, a1, b1, x1) and hom_contains(cat, a2, b2, x2)
    assert ((a1 + a2).coords, (b1 + b2).coords, (x1 + x2).coords) \
        == ((1,), (7,), (3,))
    assert hom_contains(cat, a1 + a2, b1 + b2, x1 + x2)


# -- functors from squares -----------------------------------------------------

# A commutative square induces the functor phi_H^tensor -> phi_G^tensor that
# acts on objects by f_ob and on carriers by f_mor.  A morphism is a triple
# (a, b, x) with x a carrier a -> b; its image is a morphism of the target
# when the target's hom-membership test accepts it, and the unit and tensor
# laws are equalities on the legs.

def _maps_to_morphism(target, square, m):
    a, b, x = m
    return hom_contains(target, square.f_ob(a), square.f_ob(b),
                        square.f_mor(x))


def _preserves_unit(square):
    unit = square.f_ob(square.phi_H.target.zero())
    return unit == square.phi_G.target.zero()


def _preserves_tensor_on(square, m1, m2):
    (a1, b1, x1), (a2, b2, x2) = m1, m2
    f_ob, f_mor = square.f_ob, square.f_mor
    return (f_mor(x1 + x2) == f_mor(x1) + f_mor(x2)
            and f_ob(a1 + a2) == f_ob(a1) + f_ob(a2)
            and f_ob(b1 + b2) == f_ob(b1) + f_ob(b2))


def _preserves_composition_on(target, square, m1, m2):
    (a, b, x), (b2, c, y) = m1, m2
    assert b == b2
    return (_maps_to_morphism(target, square, (a, c, x + y))
            and square.f_mor(x + y) == square.f_mor(x) + square.f_mor(y))


def test_identity_square_functor(Z):
    phi = fgab.GroupMorphism(Z, Z, [[2]])
    square = CommSquare(phi, phi, fgab.GroupMorphism(Z, Z, [[1]]),
                        fgab.GroupMorphism(Z, Z, [[1]]))
    source, target = MorTensorCat(square.phi_H), MorTensorCat(square.phi_G)
    assert _preserves_unit(square)
    a = Z.element([3])
    assert square.f_ob(a) == a
    m = (Z.element([0]), Z.element([2]), Z.element([1]))
    assert hom_contains(source, *m)
    assert _maps_to_morphism(target, square, m)
    assert square.f_mor(m[2]) == m[2]


def test_mirror_square_functor():
    square, _ = mirror_exp_square()
    src, target = MorTensorCat(square.phi_H), MorTensorCat(square.phi_G)
    assert _preserves_unit(square)
    H_ob = square.phi_H.target
    a = H_ob.element([30])
    assert _maps_to_morphism(target, square, (a, a, src.mor_group.zero()))
    rng = random.Random(9)
    for _ in range(20):
        x, y = rng.randint(-9, 9), rng.randint(-9, 9)
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        m1 = (H_ob.element([a]), H_ob.element([a + x]),
              src.mor_group.element([x]))
        m2 = (H_ob.element([b]), H_ob.element([b + y]),
              src.mor_group.element([y]))
        m3 = (H_ob.element([a + x]), H_ob.element([a + x + y]),
              src.mor_group.element([y]))
        for m in (m1, m2, m3):
            assert hom_contains(src, *m)
            assert _maps_to_morphism(target, square, m)
        assert _preserves_tensor_on(square, m1, m2)
        assert _preserves_composition_on(target, square, m1, m3)


def test_functor_laws_exhaustive_on_finite_square():
    # on finite squares the sampled spot-checks can be made exhaustive
    rng = random.Random(77)
    square, _ = testing.random_square(rng, max_order=12)
    src, target = MorTensorCat(square.phi_H), MorTensorCat(square.phi_G)
    assert _preserves_unit(square)
    morphisms = []
    for a in src.obj_group.elements():
        for x in src.mor_group.elements():
            morphisms.append((a, a + square.phi_H(x), x))
    for m1 in morphisms[:20]:
        assert _maps_to_morphism(target, square, m1)
        for m2 in morphisms[:20]:
            assert _preserves_tensor_on(square, m1, m2)
            x2 = m2[2]
            m3 = (m1[1], m1[1] + square.phi_H(x2), x2)
            assert hom_contains(src, *m3)
            assert _preserves_composition_on(target, square, m1, m3)


def test_zero_square_constant_functor(Z):
    zero_grp = fgab.FgAbGroup(0)
    phi_G = fgab.GroupMorphism(zero_grp, zero_grp, [])
    square = CommSquare(fgab.GroupMorphism(Z, Z, [[1]]),
                        phi_G,
                        fgab.GroupMorphism(Z, zero_grp, []),
                        fgab.GroupMorphism(Z, zero_grp, []))
    assert square.f_ob(Z.element([5])).key() == zero_grp.zero().key()
    m = (Z.element([5]), Z.element([7]), Z.element([2]))
    assert hom_contains(MorTensorCat(square.phi_H), *m)
    assert _maps_to_morphism(MorTensorCat(square.phi_G), square, m)
    assert square.f_mor(m[2]).key() == zero_grp.zero().key()


def test_square_commutation_enforced(Z):
    Z24 = fgab.cyclic_group(24)
    with pytest.raises(fgab.IllDefinedMorphism):
        CommSquare(fgab.GroupMorphism(Z, Z, [[2]]),
                   fgab.GroupMorphism(Z, Z24, [[1]]),
                   fgab.GroupMorphism(Z, Z24, [[1]]),
                   fgab.GroupMorphism(Z, Z, [[1]]))


# -- homotopy fibers -----------------------------------------------------------

def test_mirror_hofiber_objects():
    square, _ = mirror_exp_square()
    fiber = moncat.HofibCat(square)
    Gm, Ho = square.phi_G.source, square.phi_H.target
    # enumeration over residues: (g, h) is an object iff g = h mod 24
    for g in range(-24, 49, 7):
        for h in range(-24, 49, 5):
            assert fiber.is_object(Gm.element([g]), Ho.element([h])) \
                == ((g - h) % 24 == 0)
    assert fiber.unit() == (Gm.zero(), Ho.zero())


def test_identity_square_hofiber_is_diagonal(Z):
    phi = fgab.GroupMorphism(Z, Z, [[1]])
    square = CommSquare(phi, phi, fgab.GroupMorphism(Z, Z, [[1]]),
                        fgab.GroupMorphism(Z, Z, [[1]]))
    fiber = moncat.HofibCat(square)
    for g in range(-3, 4):
        for h in range(-3, 4):
            assert fiber.is_object(Z.element([g]), Z.element([h])) == (g == h)


def test_zero_square_objects():
    # f_ob = 0, f_mor = 0, phi_G = id: objects are exactly (0, h)
    Z = fgab.free_group(1, "H")
    G = fgab.free_group(1, "G")
    phi_G = fgab.GroupMorphism(G, G, [[1]])
    square = CommSquare(fgab.GroupMorphism(Z, Z, [[1]]), phi_G,
                        fgab.GroupMorphism(Z, G, [[0]]),
                        fgab.GroupMorphism(Z, G, [[0]]))
    fiber = moncat.HofibCat(square)
    for g in range(-2, 3):
        for h in range(-2, 3):
            assert fiber.is_object(G.element([g]), Z.element([h])) == (g == 0)


def test_mirror_hofiber_hom_examples():
    square, _ = mirror_exp_square()
    fiber = moncat.HofibCat(square)
    # one direct sum G_mor + H_ob per fiber: the pullback's
    assert fiber.stacked.target is fiber.pullback.incl.target
    Gm, Ho, Hm = (square.phi_G.source, square.phi_H.target,
                  square.phi_H.source)
    # two inconsistent linear constraints
    hs = fiber.hom((Gm.element([24]), Ho.element([0])),
                   (Gm.element([0]), Ho.element([0])))
    assert hs.is_empty
    # identities
    p = (Gm.element([24]), Ho.element([0]))
    assert not fiber.hom(p, p).is_empty
    assert fiber_hom_contains(fiber, p, p, Hm.zero())
    # a unique solution
    hs = fiber.hom((Gm.element([0]), Ho.element([0])),
                   (Gm.element([5]), Ho.element([5])))
    assert hs.particular.coords == (5,)
    assert hs.kernel_group.is_trivial


def test_hofiber_hom_composition_property():
    rng = random.Random(21)
    for _ in range(10):
        square, _ = testing.random_square(rng)
        fiber = moncat.HofibCat(square)
        objs = []
        for p in fiber.object_group.elements():
            objs.append(fiber.pullback.pair(p))
            if len(objs) >= 3:
                break
        if len(objs) < 3:
            continue
        p, q, r = objs
        h1 = fiber.hom(p, q)
        h2 = fiber.hom(q, r)
        if h1.is_empty or h2.is_empty:
            continue
        x = h1.particular + h2.particular
        assert fiber_hom_contains(fiber, p, r, x)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_hofiber_hom_from_nonunit_objects_matches_enumeration(seed):
    # hom-sets whose source is not the unit, against the x-solutions of
    # the two constraints bucketed by their right-hand sides
    rng = random.Random(seed)
    square, _ = testing.random_square(rng)
    fiber = moncat.HofibCat(square)
    buckets = testing.brute_connecting_buckets(square)
    unit = fiber.unit()
    objects = [fiber.pullback.pair(p) for p in
               itertools.islice(fiber.object_group.elements(), 60)]
    sources = [p for p in objects if p != unit]
    for _ in range(min(len(sources), 6)):
        (g, h), (g2, h2) = rng.choice(sources), rng.choice(objects)
        hs = fiber.hom((g, h), (g2, h2))
        assert hs.element_keys() == buckets.get(
            ((g2 - g).key(), (h2 - h).key()), set())
        if not hs.is_empty:
            assert fiber_hom_contains(fiber, (g, h), (g2, h2), hs.particular)


def test_hofiber_rejects_non_objects():
    square, _ = mirror_exp_square()
    fiber = moncat.HofibCat(square)
    Gm, Ho = square.phi_G.source, square.phi_H.target
    with pytest.raises(ValueError):
        fiber.hom((Gm.element([1]), Ho.element([0])),
                  (Gm.element([0]), Ho.element([0])))
    # membership answers for objects only, at either end
    unit, stray = fiber.unit(), (Gm.element([1]), Ho.element([0]))
    for p, q in ((unit, stray), (stray, unit)):
        with pytest.raises(ValueError, match="is not an object"):
            fiber_hom_contains(fiber, p, q, square.phi_H.source.zero())
    # a pair from the wrong groups is refused, not read as coordinates
    with pytest.raises(fgab.ParentMismatch):
        fiber_hom_contains(fiber, (Ho.zero(), Gm.zero()),
                           (Ho.element([1]), Gm.element([1])),
                           square.phi_H.source.zero())


# -- the comparison functor ----------------------------------------------------

def test_xi_mirror_examples():
    square, fill = mirror_exp_square()
    fiber = moncat.HofibCat(square)
    xi = moncat.XiFunctor(fiber, fill)
    Gm, Ho = square.phi_G.source, square.phi_H.target
    value, coords = xi.apply_object((Gm.element([24]), Ho.element([0])))
    assert value.coords == (24,) and coords.coords == (1,)
    for h in (-5, 0, 9):
        value, _ = xi.apply_object((fill.lam(Ho.element([h])),
                                    Ho.element([h])))
        assert value == Gm.zero()
    # morphisms map to identities: connected objects have equal images
    p = (Gm.element([0]), Ho.element([0]))
    q = (Gm.element([5]), Ho.element([5]))
    assert fiber_hom_contains(fiber, p, q, square.phi_H.source.element([5]))
    assert xi.apply_object(p)[0] == xi.apply_object(q)[0]


def test_xi_constancy_on_random_squares():
    rng = random.Random(22)
    for _ in range(15):
        square, fill = testing.random_square(rng)
        fiber = moncat.HofibCat(square)
        xi = moncat.XiFunctor(fiber, fill)
        unit = fiber.unit()
        checked = 0
        for p in fiber.object_group.elements():
            pair = fiber.pullback.pair(p)
            hs = fiber.hom(unit, pair)
            if hs.is_empty:
                continue
            assert fiber_hom_contains(fiber, unit, pair, hs.particular)
            v0, _ = xi.apply_object(unit)
            v1, _ = xi.apply_object(pair)
            # the identity g' - g = lambda(h') - lambda(h) made exact
            assert v0 == v1
            checked += 1
            if checked >= 5:
                break


def test_xi_equivalence_criterion_examples(Z):
    square, fill = mirror_exp_square()
    assert moncat.xi_is_equivalence(square, fill)

    # phi_H = x2 with a compatible square: not an equivalence, witnessed
    # by two objects with equal image and no connecting morphism
    H_mor, H_ob = fgab.free_group(1), fgab.free_group(1)
    G_mor, G_ob = fgab.free_group(1), fgab.cyclic_group(24)
    phi_H = fgab.GroupMorphism(H_mor, H_ob, [[2]])
    phi_G = fgab.GroupMorphism(G_mor, G_ob, [[1]])
    lam = fgab.GroupMorphism(H_ob, G_mor, [[1]])
    square2 = CommSquare(phi_H, phi_G, lam.then(phi_G), phi_H.then(lam))
    fill2 = DiagonalFill(square2, lam)
    assert not moncat.xi_is_equivalence(square2, fill2)
    fiber2 = moncat.HofibCat(square2)
    xi2 = moncat.XiFunctor(fiber2, fill2)
    p = (G_mor.element([0]), H_ob.element([0]))
    q = (G_mor.element([1]), H_ob.element([1]))
    v_p, _ = xi2.apply_object(p)
    v_q, _ = xi2.apply_object(q)
    assert v_p == v_q
    assert fiber2.hom(p, q).is_empty  # fully-faithfulness fails

    # phi_H = 0: Z -> 0 is not injective
    zero_grp = fgab.FgAbGroup(0)
    phi_H3 = fgab.GroupMorphism(Z, zero_grp, [])
    lam3 = fgab.GroupMorphism(zero_grp, G_mor, [[] for _ in range(1)])
    square3 = CommSquare(phi_H3, phi_G, lam3.then(phi_G), phi_H3.then(lam3))
    fill3 = DiagonalFill(square3, lam3)
    assert not moncat.xi_is_equivalence(square3, fill3)


def test_xi_equivalence_oracle_agreement():
    rng = random.Random(23)
    seen = {True: 0, False: 0}
    for _ in range(25):
        square, fill = testing.random_square(rng, max_order=60)
        fast = moncat.xi_is_equivalence(square, fill)
        slow = moncat.xi_equivalence_by_enumeration(square, fill)
        assert fast == slow == fgab.is_isomorphism(square.phi_H)
        seen[fast] += 1
    assert seen[True] and seen[False]


def test_fill_forced_when_phi_H_invertible():
    # if phi_H is an isomorphism the diagonal is unique: it must be
    # f_mor composed with the inverse of phi_H
    import numpy as np
    rng = random.Random(2024)
    for _ in range(15):
        square, fill = testing.random_square(rng, force_iso=True)
        phi_H = square.phi_H
        cols = []
        for j in range(phi_H.target.n_generators):
            x = fgab.solve(phi_H, phi_H.target.generator(j))
            assert x is not None
            cols.append(list(x.coords))
        inv = fgab.GroupMorphism(phi_H.target, phi_H.source,
                                 np.array(cols, dtype=object).T)
        forced = inv.then(square.f_mor)
        assert forced.target is fill.lam.target
        assert fill.lam.target.first_column_outside(intmat.transpose(
            intmat.difference(fill.lam.matrix, forced.matrix),
            phi_H.target.n_generators)) is None


def test_kernel_elements_are_endomorphisms():
    # ker(phi_H) sits inside ker(f_mor) and acts as endomorphisms of
    # every fiber object
    rng = random.Random(2025)
    for _ in range(10):
        square, _ = testing.random_square(rng)
        fiber = moncat.HofibCat(square)
        K, incl = fgab.kernel(square.phi_H)
        pairs = []
        for p in fiber.object_group.elements():
            pairs.append(fiber.pullback.pair(p))
            if len(pairs) >= 4:
                break
        for k in K.elements():
            x = incl(k)
            assert square.f_mor(x) == square.f_mor.target.zero()
            for pair in pairs:
                assert fiber_hom_contains(fiber, pair, pair, x)


def test_fill_triangle_checks():
    square, _ = mirror_exp_square()
    bad = fgab.GroupMorphism(square.phi_H.target, square.phi_G.source, [[2]])
    with pytest.raises(moncat.TriangleMismatch):
        DiagonalFill(square, bad)


def _mismatches():
    square, fill = mirror_exp_square()
    _, other_fill = mirror_exp_square()
    H_mor, H_ob = square.phi_H.source, square.phi_H.target
    G_mor, G_ob = square.phi_G.source, square.phi_G.target
    cat, fiber = MorTensorCat(square.phi_G), moncat.HofibCat(square)
    return {
        "hom": lambda: cat.hom(H_ob.zero(), G_ob.zero()),
        "hom-contains": lambda: hom_contains(cat, G_ob.zero(), G_ob.zero(),
                                             H_mor.zero()),
        "square-f-ob": lambda: CommSquare(square.phi_H, square.phi_G,
                                          square.f_mor, square.f_mor),
        "square-f-mor": lambda: CommSquare(square.phi_H, square.phi_G,
                                           square.f_ob, square.f_ob),
        "is-object-g": lambda: fiber.is_object(H_ob.zero(), H_ob.zero()),
        "is-object-h": lambda: fiber.is_object(G_mor.zero(), G_mor.zero()),
        "fill-source": lambda: DiagonalFill(square, square.f_mor),
        "xi-fill": lambda: moncat.XiFunctor(fiber, other_fill),
        "criterion-fill": lambda: moncat.xi_is_equivalence(square,
                                                           other_fill),
        "enumerate-infinite": lambda: moncat.xi_equivalence_by_enumeration(
            square, fill),
    }


@pytest.mark.parametrize("case, error, message", [
    ("hom", fgab.ParentMismatch, "objects must live in the object group"),
    ("hom-contains", fgab.ParentMismatch,
     "morphism carrier must live in A_mor"),
    ("square-f-ob", fgab.TargetMismatch,
     "f_ob does not connect the object groups"),
    ("square-f-mor", fgab.TargetMismatch,
     "f_mor does not connect the morphism groups"),
    ("is-object-g", fgab.ParentMismatch, "g must live in G_mor"),
    ("is-object-h", fgab.ParentMismatch, "h must live in H_ob"),
    ("fill-source", fgab.TargetMismatch, "lambda must start at H_ob"),
    ("xi-fill", moncat.TriangleMismatch, "fill belongs to a different square"),
    ("criterion-fill", moncat.TriangleMismatch,
     "fill belongs to a different square"),
    ("enumerate-infinite", ValueError,
     "enumeration oracle needs finite groups"),
])
def test_mismatched_parts_are_refused(case, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        _mismatches()[case]()


def _tiny_square():
    """phi_H = id of the trivial group T over phi_G: Z/2 -> T: the fiber
    and ker phi_G are Z/2 and Xi is (g, 0) -> g, an equivalence."""
    T, Z2 = fgab.FgAbGroup(0), fgab.cyclic_group(2)
    into_Z2 = fgab.GroupMorphism(T, Z2, [[]])
    identity = fgab.GroupMorphism(T, T, [])
    square = CommSquare(identity, fgab.GroupMorphism(Z2, T, []), identity,
                        into_Z2)
    return square, DiagonalFill(square, into_Z2)


def _a_connection_each(square):
    # one connecting morphism from the unit to each of the two objects
    return {(square.phi_G.source.element([v]).key(), ()): {()}
            for v in (0, 1)}


@pytest.mark.parametrize("owner, name, fault", [
    (moncat.HofibCat, "is_object", lambda self, g, h: False),
    (moncat.XiFunctor, "apply_object",
     lambda self, p: (p[0] + p[0].parent.generator(0), None)),
    (testing, "brute_connecting_buckets", _a_connection_each),
], ids=["kernel-not-objects", "xi-not-onto", "xi-not-faithful"])
def test_enumeration_oracle_sees_a_broken_functor(monkeypatch, owner, name,
                                                  fault):
    square, fill = _tiny_square()
    assert moncat.xi_equivalence_by_enumeration(square, fill) is True
    monkeypatch.setattr(owner, name, fault)
    assert moncat.xi_equivalence_by_enumeration(square, fill) is False


def test_xi_refuses_a_value_outside_the_kernel(monkeypatch):
    square, fill = _tiny_square()
    xi = moncat.XiFunctor(moncat.HofibCat(square), fill)
    monkeypatch.setattr(moncat, "solve", lambda f, y: None)
    with pytest.raises(ArithmeticError,
                       match="^Xi value escaped the kernel of phi_G$"):
        xi.apply_object((square.phi_G.source.zero(),
                         square.phi_H.target.zero()))
