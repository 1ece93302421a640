import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abtqft import fgab, testing


@pytest.fixture
def Z():
    return fgab.free_group(1, "Z")


def test_normal_form_caching():
    G = fgab.FgAbGroup(3, [[2, 0, 0], [0, 12, 0]])
    assert G.invariant_factors == (2, 12)
    assert G.free_rank == 1
    # recomputing from the same relations reproduces the cached form
    H = fgab.FgAbGroup(3, G.relations)
    assert H.invariant_factors == G.invariant_factors
    assert H.free_rank == G.free_rank


def test_factor_one_dropped():
    G = fgab.FgAbGroup(2, [[1, 0], [0, 3]])
    assert G.invariant_factors == (3,)
    assert G.free_rank == 0


def test_degenerate_presentations():
    trivial = fgab.FgAbGroup(0)
    assert trivial.is_trivial
    assert list(trivial.elements()) == [trivial.zero()]
    free = fgab.free_group(2)
    assert (free.relations, free.n_generators) == ((), 2)
    assert free.free_rank == 2


def test_element_rejects_non_integer_coordinates():
    with pytest.raises(ValueError, match="coordinate"):
        fgab.cyclic_group(5).element([1.7])


@pytest.mark.parametrize("n", [2.5, True])
def test_group_rejects_non_integer_generator_count(n):
    with pytest.raises(ValueError, match="generators"):
        fgab.FgAbGroup(n)


def test_element_eq_examples(Z):
    Z24 = fgab.cyclic_group(24)
    assert Z24.element([25]) == Z24.element([1])
    assert not Z.element([1]) == Z.element([2])
    # elements compare by class and are never hashed
    with pytest.raises(TypeError, match="unhashable"):
        hash(Z24.element([1]))
    Z2Z = fgab.direct_sum(fgab.cyclic_group(2), fgab.free_group(1))
    assert Z2Z.element([1, 0]) == Z2Z.element([3, 0])
    assert not Z2Z.element([1, 0]) == Z2Z.element([1, 1])


def test_element_eq_parent_mismatch(Z):
    other = fgab.free_group(1)
    with pytest.raises(fgab.ParentMismatch):
        Z.element([1]) == other.element([1])


def test_element_eq_brute_force_oracle():
    rng = random.Random(5)
    for _ in range(10):
        G = testing.random_finite_group(rng, max_order=200)
        elements = list(G.elements())
        assert len(elements) == G.order()
        # exhaustive coset check: equality iff difference in the lattice
        for a, b in random.Random(6).sample(
                list(itertools.product(elements, elements)),
                min(100, len(elements) ** 2)):
            column = tuple(zip((a - b).coords))
            expected = G.first_column_outside(column, 1) is None
            assert (a == b) == expected


def test_kernel_examples(Z):
    Z24 = fgab.cyclic_group(24)
    K, incl = fgab.kernel(fgab.GroupMorphism(Z, Z24, [[1]]))
    assert K.describe() == "Z"
    assert incl.matrix == ((24,),)

    K, _ = fgab.kernel(fgab.GroupMorphism(Z, Z, [[1]]))
    assert K.is_trivial
    K, _ = fgab.kernel(fgab.GroupMorphism(Z, Z, [[2]]))
    assert K.is_trivial
    K, incl = fgab.kernel(fgab.GroupMorphism(Z, Z, [[0]]))
    assert K.describe() == "Z"


def test_kernel_characterizes_vanishing(Z):
    Z4 = fgab.cyclic_group(4)
    f = fgab.GroupMorphism(Z, Z4, [[2]])
    K, incl = fgab.kernel(f)
    assert K.describe() == "Z"
    # elements map to zero iff they are in the image of incl
    for n in range(-8, 9):
        x = Z.element([n])
        in_kernel = f(x) == Z4.zero()
        assert in_kernel == (fgab.solve(incl, x) is not None)


def test_pullback_times2_times3(Z):
    f = fgab.GroupMorphism(Z, Z, [[2]])
    g = fgab.GroupMorphism(Z, Z, [[3]])
    pb = fgab.pullback(f, g)
    assert pb.group.describe() == "Z"
    gen = pb.group.generator(0)
    x, y = pb.pair(gen)
    assert (x.coords, y.coords) in {((3,), (2,)), ((-3,), (-2,))}
    assert f(x) == g(y)


def test_pullback_diagonal(Z):
    identity = fgab.GroupMorphism(Z, Z, [[1]])
    pb = fgab.pullback(identity, identity)
    assert pb.group.describe() == "Z"
    gen = pb.group.generator(0)
    x, y = pb.pair(gen)
    assert x.coords == y.coords


def test_pullback_residues_mod_24():
    Z1, Z2 = fgab.free_group(1), fgab.free_group(1)
    Z24 = fgab.cyclic_group(24)
    f = fgab.GroupMorphism(Z1, Z24, [[1]])
    g = fgab.GroupMorphism(Z2, Z24, [[1]])
    pb = fgab.pullback(f, g)
    # enumeration over residues: the pair (a, b) lifts iff a = b mod 24
    for a in range(0, 48, 7):
        for b in range(0, 48, 5):
            pair = pb.stack(Z1.element([a]), Z2.element([b]))
            p = fgab.solve(pb.incl, pair)
            assert (p is not None) == ((a - b) % 24 == 0)


def test_pullback_pair_matches_row_blocks():
    # on the fiber product of phi_G and f_ob of seeded squares (their
    # homotopy fibers' objects): the projections onto the factors are the
    # row blocks of the inclusion into G + H, applied as morphisms
    rng = random.Random(31)
    for _ in range(50):
        square, _ = testing.random_square(rng)
        pb = fgab.pullback(square.phi_G, square.f_ob)
        G, H = square.phi_G.source, square.f_ob.source
        n = G.n_generators
        pr1 = fgab.GroupMorphism(pb.group, G, pb.incl.matrix[:n])
        pr2 = fgab.GroupMorphism(pb.group, H, pb.incl.matrix[n:])
        points = [pb.group.generator(i) for i in range(pb.group.n_generators)]
        points += itertools.islice(pb.group.elements(), 10)
        for p in points:
            x, y = pb.pair(p)
            assert x.parent is G and y.parent is H
            assert (x.coords, y.coords) == (pr1(p).coords, pr2(p).coords)
            assert pb.stack(x, y).key() == pb.incl(p).key()


def test_pullback_target_mismatch(Z):
    W = fgab.free_group(1)
    with pytest.raises(fgab.TargetMismatch):
        fgab.pullback(fgab.GroupMorphism(Z, Z, [[1]]),
                      fgab.GroupMorphism(W, W, [[1]]))


def test_is_isomorphism_examples(Z):
    assert fgab.is_isomorphism(fgab.GroupMorphism(Z, Z, [[1]]))
    assert not fgab.is_isomorphism(fgab.GroupMorphism(Z, Z, [[2]]))
    Z2Z3 = fgab.direct_sum(fgab.cyclic_group(2), fgab.cyclic_group(3))
    Z6 = fgab.cyclic_group(6)
    f = fgab.GroupMorphism(Z2Z3, Z6, [[3, 4]])
    assert f(Z2Z3.element([1, 1])) == Z6.element([1])
    # enumeration of all six elements on both sides
    images = {f(x).key() for x in Z2Z3.elements()}
    assert len(images) == 6 == Z6.order()
    assert fgab.is_isomorphism(f)


def test_ill_defined_morphism_rejected():
    Z2Z3 = fgab.direct_sum(fgab.cyclic_group(2), fgab.cyclic_group(3))
    with pytest.raises(fgab.IllDefinedMorphism):
        fgab.GroupMorphism(Z2Z3, fgab.cyclic_group(6), [[1, 1]])


def test_is_isomorphism_vs_enumeration():
    rng = random.Random(11)
    for _ in range(25):
        G = testing.random_finite_group(rng, max_order=200)
        H = testing.random_finite_group(rng, max_order=200)
        f = testing.random_morphism(rng, G, H)
        bijective = (G.order() == H.order()
                     and len({f(x).key() for x in G.elements()}) == H.order())
        assert fgab.is_isomorphism(f) == bijective


def test_solve_examples(Z):
    f2 = fgab.GroupMorphism(Z, Z, [[2]])
    assert fgab.solve(f2, Z.element([4])).coords == (2,)
    assert fgab.solve(f2, Z.element([3])) is None
    Z24 = fgab.cyclic_group(24)
    proj = fgab.GroupMorphism(Z, Z24, [[1]])
    assert fgab.solve(proj, Z24.element([7])).coords == (7,)


def test_solve_deterministic_and_correct():
    rng = random.Random(12)
    for _ in range(20):
        G = testing.random_finite_group(rng)
        H = testing.random_finite_group(rng)
        f = testing.random_morphism(rng, G, H)
        for x in list(G.elements())[:10]:
            y = f(x)
            s1 = fgab.solve(f, y)
            s2 = fgab.solve(f, y)
            assert s1.coords == s2.coords
            assert f(s1) == y


def test_image_and_cokernel(Z):
    assert fgab.cokernel(fgab.GroupMorphism(Z, Z, [[24]])).describe() == "Z/24"
    assert fgab.cokernel(fgab.GroupMorphism(Z, Z, [[1]])).is_trivial
    Z4 = fgab.cyclic_group(4)
    img, incl = fgab.image(fgab.GroupMorphism(Z, Z4, [[2]]))
    assert img.describe() == "Z/2"
    # enumeration: the image subgroup is {0, 2}
    keys = {incl(x).key() for x in img.elements()}
    assert keys == {Z4.element([0]).key(), Z4.element([2]).key()}


def test_composition_well_defined():
    rng = random.Random(13)
    G = testing.random_finite_group(rng)
    H = testing.random_finite_group(rng)
    K = testing.random_finite_group(rng)
    f = testing.random_morphism(rng, G, H)
    g = testing.random_morphism(rng, H, K)
    composite = f.then(g)
    def as_array(h):
        return np.array(h.matrix, dtype=object).reshape(
            h.target.n_generators, h.source.n_generators)

    assert (as_array(composite) == as_array(g) @ as_array(f)).all()
    for x in list(G.elements())[:8]:
        assert composite(x) == g(f(x))


@settings(max_examples=60, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
def test_element_arithmetic_laws(a, b, c):
    Z24 = fgab.cyclic_group(24)
    x, y, z = (Z24.element([v]) for v in (a, b, c))
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x + Z24.zero() == x
    assert x + (-x) == Z24.zero()


def test_group_json_roundtrip():
    G = fgab.FgAbGroup(2, [[2, 0], [0, 6]], name="G")
    rec = {"generators": 2, "relations": [[2, 0], [0, 6]], "name": "G"}
    H = fgab.group_from_json(rec)
    assert H.invariant_factors == G.invariant_factors
    assert (H.name, H.relations) == ("G", ((2, 0), (0, 6)))
    with pytest.raises(ValueError):
        fgab.group_from_json({"generators": 1, "relations": [[1.5]]})
    with pytest.raises(ValueError):
        fgab.group_from_json({"generators": True})


def _groups():
    Z, Z2 = fgab.free_group(1, "Z"), fgab.cyclic_group(2, "Z/2")
    return Z, Z2, fgab.GroupMorphism(Z, Z2, [[1]])


@pytest.mark.parametrize("call, error, message", [
    (lambda Z, Z2, f: Z.order(), ValueError, r"^infinite group$"),
    (lambda Z, Z2, f: next(Z.elements()), ValueError,
     r"^cannot enumerate an infinite group$"),
    (lambda Z, Z2, f: fgab.GroupElement(Z, [1, 2]), ValueError,
     r"^coordinate length 2 != 1$"),
    (lambda Z, Z2, f: f(Z2.zero()), fgab.ParentMismatch,
     r"^argument not in the source group$"),
    (lambda Z, Z2, f: f.then(f), fgab.TargetMismatch,
     r"^composition mismatch$"),
    (lambda Z, Z2, f: fgab.solve(f, Z.zero()), fgab.ParentMismatch,
     r"^rhs not in the target group$"),
    (lambda Z, Z2, f: fgab.pullback(f, f).stack(Z2.zero(), Z.zero()),
     fgab.ParentMismatch, r"^pair not in the factors of the pullback$"),
], ids=["order", "elements", "element-length", "apply", "then", "solve",
        "stack"])
def test_misuse_is_refused(call, error, message):
    with pytest.raises(error, match=message):
        call(*_groups())


def test_an_element_is_not_equal_to_a_non_element(Z):
    x = Z.element([1])
    assert x.__eq__(1) is NotImplemented
    assert x != 1 and x != (1,)


def test_random_automorphism_checks_its_groups_and_result(monkeypatch):
    rng = random.Random(0)
    Z3 = fgab.cyclic_group(3)
    with pytest.raises(ValueError,
                       match="^G and H present different groups$"):
        testing.random_automorphism(rng, fgab.cyclic_group(2), Z3)
    monkeypatch.setattr(fgab, "is_isomorphism", lambda f: False)
    with pytest.raises(ArithmeticError,
                       match="^random automorphism is not an isomorphism$"):
        testing.random_automorphism(rng, Z3, fgab.cyclic_group(3))
