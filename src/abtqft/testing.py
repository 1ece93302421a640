"""Random generators and brute-force oracles for the algebraic layers.

Everything here enumerates: the generators build random finite groups,
morphisms and commutative squares, and the oracle helpers answer hom-set
and fiber questions by exhaustive search so the fast coset machinery can
be checked against them.
"""

from __future__ import annotations

import math

from . import fgab, intmat
from .fgab import FgAbGroup, GroupMorphism

_FACTORS = (2, 3, 4, 5, 6, 8, 9, 12)


def random_finite_group(rng, max_order=100, obfuscate=True):
    """Random finite abelian group of one or two cyclic factors, sometimes
    in a scrambled presentation."""
    while True:
        factors = [rng.choice(_FACTORS) for _ in range(rng.randint(1, 2))]
        if math.prod(factors) <= max_order:
            break
    G = fgab.product_group(factors)
    if obfuscate and rng.random() < 0.5:
        G = scrambled_presentation(G, rng)
    return G


def scrambled_presentation(G, rng):
    """Same group, different presentation: unimodular generator change
    plus redundant relation rows."""
    n = G.n_generators
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-2, 2)
            for row in V:
                row[i] += q * row[j]
    rows = list(intmat.matmul(G.relations, V, n))
    if rows and rng.random() < 0.5:
        extra = [0] * n
        for r in rows:
            q = rng.randint(-1, 1)
            extra = [e + q * v for e, v in zip(extra, r)]
        rows.append(extra)
    return FgAbGroup(n, rows)


def random_morphism(rng, G, H):
    """Random well-defined morphism G -> H, via canonical coordinates.

    In Smith bases both groups are products of cyclics, where a morphism
    component Z/d -> Z/m is exactly a multiple of m/gcd(d, m); the matrix
    is conjugated back to the original presentations.
    """
    n, m = G.n_generators, H.n_generators
    C = [[0] * n for _ in range(m)]
    for i in range(n):
        d = G._mods[i]
        for j in range(m):
            mod = H._mods[j]
            if mod == 1:
                continue
            if mod == 0:
                if d == 0:
                    C[j][i] = rng.randint(-3, 3)
                continue
            if d == 0:
                C[j][i] = rng.randrange(mod)
            else:
                step = mod // math.gcd(d, mod)
                C[j][i] = step * rng.randrange(mod // step)
    return GroupMorphism(G, H, _conjugated(H, C, G))


def _conjugated(H, C, G):
    """The int rows U_inv(H) C U(G): C from the Smith bases of G and H
    back to their presentations."""
    n = G.n_generators
    return intmat.matmul(intmat.matmul(H._element_rows, C, n),
                         G._key_rows, n)


def random_automorphism(rng, G, H):
    """Random isomorphism between two presentations of one canonical
    group (unit scalars on each cyclic factor)."""
    if G._mods != H._mods:
        raise ValueError("G and H present different groups")
    n = G.n_generators
    C = [[0] * n for _ in range(n)]
    for i in range(n):
        d = G._mods[i]
        if d == 0:
            C[i][i] = rng.choice([1, -1])
        elif d != 1:
            units = [u for u in range(1, d) if math.gcd(u, d) == 1]
            C[i][i] = rng.choice(units)
    f = GroupMorphism(G, H, _conjugated(H, C, G))
    if not fgab.is_isomorphism(f):
        raise ArithmeticError("random automorphism is not an isomorphism")
    return f


def random_square(rng, max_order=60, force_iso=None):
    """Random commutative square built from (phi_H, phi_G, lambda).

    Setting f_mor = lambda . phi_H and f_ob = phi_G . lambda guarantees
    commutativity and the existence of a diagonal fill.  `force_iso`
    forces phi_H to be (or not be) an isomorphism.
    """
    from .moncat import CommSquare, DiagonalFill

    if force_iso is None:
        force_iso = rng.random() < 0.4
    if force_iso:
        H_mor = random_finite_group(rng, max_order, obfuscate=False)
        H_ob = FgAbGroup(H_mor.n_generators, H_mor.relations)
        phi_H = random_automorphism(rng, H_mor, H_ob)
    else:
        H_mor = random_finite_group(rng, max_order)
        H_ob = random_finite_group(rng, max_order)
        phi_H = random_morphism(rng, H_mor, H_ob)
    G_mor = random_finite_group(rng, max_order)
    G_ob = random_finite_group(rng, max_order)
    phi_G = random_morphism(rng, G_mor, G_ob)
    lam = random_morphism(rng, H_ob, G_mor)
    f_mor = phi_H.then(lam)
    f_ob = lam.then(phi_G)
    square = CommSquare(phi_H, phi_G, f_ob, f_mor)
    return square, DiagonalFill(square, lam)


# -- brute-force oracles ----------------------------------------------------

ORACLE_MAX_ORDER = 10 ** 6  # the most elements an --oracle enumerates


def oracle_skip(enumerated, *finite):
    """Why an `--oracle` is skipped, or None: a group of `enumerated` (by
    name) or `finite` is infinite, or one it enumerates passes the bound."""
    if not all(G.is_finite for G in (*enumerated.values(), *finite)):
        return "skipped (infinite groups)"
    big = [n for n, G in enumerated.items() if G.order() > ORACLE_MAX_ORDER]
    return f"skipped (|{big[0]}| > {ORACLE_MAX_ORDER})" if big else None


def brute_hom_set(phi, a, b):
    """The keys of the x with a + phi(x) = b, by one pass over phi's
    source: time in its order, memory in the answer's size."""
    ka, kb = a.key(), b.key()
    return {x.key() for x in phi.source.elements()
            if phi.target.key_add(ka, phi(x).key()) == kb}


def brute_hom_table(phi):
    """For each object key pair, the set of solution keys, by exhaustion."""
    A_ob, A_mor = phi.target, phi.source
    images = [(x.key(), phi(x).key()) for x in A_mor.elements()]
    table = {}
    ob_keys = [(a, a.key()) for a in A_ob.elements()]
    for a, ka in ob_keys:
        for xk, fk in images:
            kb = A_ob.key_add(ka, fk)
            table.setdefault((ka, kb), set()).add(xk)
    return table, [k for _, k in ob_keys]


def brute_fiber_objects(square):
    """Enumerated fiber product {(g, h) : phi_G(g) = f_ob(h)} as key pairs."""
    pairs = set()
    f_ob_img = [(h.key(), square.f_ob(h).key())
                for h in square.phi_H.target.elements()]
    for g in square.phi_G.source.elements():
        tg = square.phi_G(g).key()
        for hk, fk in f_ob_img:
            if fk == tg:
                pairs.add((g.key(), hk))
    return pairs


def brute_connecting_buckets(square):
    """x-solutions of the two simultaneous constraints, bucketed by the
    right-hand side keys (f_mor(x), phi_H(x))."""
    buckets = {}
    for x in square.phi_H.source.elements():
        key = (square.f_mor(x).key(), square.phi_H(x).key())
        buckets.setdefault(key, set()).add(x.key())
    return buckets
