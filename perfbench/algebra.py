"""The `algebra` workload: exact group algebra, categories and Smith forms.

Small ops build seeded finite groups, morphisms and squares and ask one
question each: a hom-set with its coset keys, a homotopy-fiber connecting
hom-set, or the Xi equivalence decision with one Xi image.  Large ops run
`smith`, `kernel_basis` and three `solve_linear` calls on one 16..48
integer matrix.  Checks are untimed and come from brute-force enumeration
(`abtqft.testing`), sympy and exact integer identities.
"""

from __future__ import annotations

import hashlib

from abtqft import fgab, intmat, moncat, testing

# sympy's Smith form takes seconds to minutes on rank-deficient,
# rectangular or larger inputs, so it cross-checks the full-rank square
# matrices up to SYMPY_MAX_N; every diagonal is also certified by the
# transforms themselves (U M V = D with U, V invertible over Z and a
# divisor chain on D determine the Smith form uniquely)
SYMPY_MAX_N = 32


def _group(G):
    return fgab.FgAbGroup(len(G["mods"]), G["relations"])


def _square(sq):
    H_mor, H_ob = _group(sq["H_mor"]), _group(sq["H_ob"])
    G_mor, G_ob = _group(sq["G_mor"]), _group(sq["G_ob"])
    mor = fgab.GroupMorphism
    square = moncat.CommSquare(mor(H_mor, H_ob, sq["phi_H"]),
                               mor(G_mor, G_ob, sq["phi_G"]),
                               mor(H_ob, G_ob, sq["f_ob"]),
                               mor(H_mor, G_mor, sq["f_mor"]))
    return square, moncat.DiagonalFill(square, mor(H_ob, G_mor, sq["lam"]))


def _pair(square, obj):
    g, h = obj
    return square.phi_G.source.element(g), square.phi_H.target.element(h)


def _keys(hs):
    return None if hs.is_empty else sorted(hs.element_keys())


def op_hom(op):
    A_mor, A_ob = _group(op["A_mor"]), _group(op["A_ob"])
    phi = fgab.GroupMorphism(A_mor, A_ob, op["phi"])
    hs = moncat.MorTensorCat(phi).hom(A_ob.element(op["a"]),
                                      A_ob.element(op["b"]))
    return {"phi": phi, "a": op["a"], "b": op["b"], "keys": _keys(hs)}


def op_hofiber(op):
    square, _ = _square(op["square"])
    fiber = moncat.HofibCat(square)
    hs = fiber.hom(_pair(square, op["p"]), _pair(square, op["q"]))
    return {"square": square, "keys": _keys(hs)}


def op_xi(op):
    square, fill = _square(op["square"])
    equivalence = moncat.xi_is_equivalence(square, fill)
    xi = moncat.XiFunctor(moncat.HofibCat(square), fill)
    value, coords = xi.apply_object(_pair(square, op["object"]))
    return {"square": square, "fill": fill, "equivalence": equivalence,
            "value": value.key(), "coords": coords.key()}


def op_large(op):
    M = op["M"]
    s = intmat.smith(M)
    K = intmat.kernel_basis(M)
    xs = [intmat.solve_linear(M, b, decomposition=s) for b in op["rhs"]]
    return {"smith": s, "kernel": K, "solutions": xs}


EXECUTE = {"hom": op_hom, "hofiber": op_hofiber, "xi": op_xi,
           "large": op_large}


def summary(op, out):
    """Plain, comparable form of an op's output."""
    if op["kind"] == "large":
        s = out["smith"]
        text = repr((s.U.tolist(), s.V.tolist(), s.diag,
                     out["kernel"].tolist(),
                     [None if x is None else x.tolist()
                      for x in out["solutions"]]))
        return {"diag": s.diag,
                "sha256": hashlib.sha256(text.encode()).hexdigest()}
    return {k: v for k, v in out.items()
            if k in ("keys", "equivalence", "value", "coords")}


def check(op, out):
    """None if the output is right, else what is wrong (untimed)."""
    kind = op["kind"]
    if kind == "hom":
        A_ob = out["phi"].target
        table, _ = testing.brute_hom_table(out["phi"])
        brute = table.get((A_ob.element(out["a"]).key(),
                           A_ob.element(out["b"]).key()), set())
        got = set(out["keys"] or ())
        return None if got == brute else (
            f"hom-set has {len(got)} keys, enumeration {len(brute)}")
    if kind == "hofiber":
        square = out["square"]
        buckets = testing.brute_connecting_buckets(square)
        (g1, h1), (g2, h2) = (_pair(square, op["p"]), _pair(square, op["q"]))
        brute = buckets.get(((g2 - g1).key(), (h2 - h1).key()), set())
        got = set(out["keys"] or ())
        return None if got == brute else (
            f"connecting set has {len(got)} keys, enumeration {len(brute)}")
    if kind == "xi":
        square = out["square"]
        slow = moncat.xi_equivalence_by_enumeration(square, out["fill"])
        if slow != out["equivalence"]:
            return f"xi decision {out['equivalence']}, enumeration {slow}"
        expected = square.phi_G.source.element(op["xi_value"]).key()
        if out["value"] != expected:
            return f"Xi value {out['value']}, expected {expected}"
        return None
    return _check_large(op, out)


def _check_large(op, out):
    s, K = out["smith"], out["kernel"]
    M = intmat.as_int_matrix(op["M"])
    m, n = M.shape
    D = s.D
    if not (s.U @ M @ s.V == D).all():
        return "U M V != D"
    if not ((s.U @ s.U_inv == intmat.identity(m)).all()
            and (s.V @ s.V_inv == intmat.identity(n)).all()):
        return "a transform does not invert"
    if any(D[i, j] for i in range(m) for j in range(n) if i != j):
        return "D is not diagonal"
    dg = s.diag
    if any(d < 0 for d in dg) or any(
            dg[i] and dg[i + 1] % dg[i] for i in range(len(dg) - 1)):
        return f"divisor chain broken: {dg}"
    if op["shape"] == "square" and op["n"] <= SYMPY_MAX_N:
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import invariant_factors
        ref = [int(v) for v in invariant_factors(Matrix(op["M"]), domain=ZZ)]
        if dg != ref + [0] * (len(dg) - len(ref)):
            return "diagonal differs from sympy's invariant factors"
    rank = sum(1 for d in dg if d)
    if K.shape != (n, n - rank) or (K.size and (M @ K != 0).any()):
        return f"kernel basis of shape {K.shape} fails M ker = 0"
    for b, x in zip(op["rhs"], out["solutions"]):
        if x is None or list(M @ x) != b:
            return "M x != b for a solvable right-hand side"
    return None

