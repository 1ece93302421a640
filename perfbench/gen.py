"""Seeded input generation for the three workloads.

Everything here is plain Python over plain data: integer matrices, mesh
and puncture choices, jitter factors, scene dictionaries.  Nothing calls
abtqft; building library objects from this data is part of each timed op.
The same seed always yields the same batch.

The finite groups and morphisms follow the distribution of the generators
in ``abtqft.testing`` (the ones acceptance criteria 2-4 use): one or two
cyclic factors from FACTORS with bounded order, a scrambled presentation
half of the time, well-defined morphisms built componentwise between the
cyclic decompositions and conjugated into the presentations.
"""

from __future__ import annotations

import itertools
import math
import random

FACTORS = (2, 3, 4, 5, 6, 8, 9, 12)

# workload shapes: fixed per batch so the cost of a batch hardly depends
# on the seed; only the data inside each op does.  Batches are short (a
# few seconds in process, about ten for cli-session) so that every op runs
# several times in a measurement.  The mixes keep each reported quantile
# inside one population of ops: the algebra median among the hofiber/xi
# ops, the geometry median among the su ops of the cheapest pool (176
# stokes ops below it, then 56 su ops per pool; the pools differ up to 6x
# in cost).
ALGEBRA_SMALL = {"hom": 80, "hofiber": 80, "xi": 80}
# one large matrix per size; each shape occurs, and the 32x32 square one
# is also checked against sympy
ALGEBRA_LARGE = ((16, "tall"), (24, "rank-deficient"), (32, "square"),
                 (40, "wide"), (48, "square"))
ALGEBRA_SIZES = tuple(n for n, _ in ALGEBRA_LARGE)
GEOMETRY_SMALL = {"su": 224, "stokes": 176}
GEOMETRY_SIZES = (12, 14, 16, 18, 20)
TORUS_KINDS = ("flat", "equilateral", "flipped")
JITTER_VALUES = 64          # more than the edge count of any builtin mesh
BUILTIN_EULER = {"icosahedron": 2, "flat-torus": 0, "eq-torus": 0,
                 "flip-torus": 0, "hex-sphere": 2, "pent-sphere": 2,
                 "oct-sphere": 2, "genus2": -2}
K3_HALF_P1 = -24
REFINEMENTS = (1, 2, 3)    # quadrature refinements the cli-session uses


# -- integer linear algebra on lists ----------------------------------------

def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def matvec(A, x):
    return [sum(a * b for a, b in zip(row, x)) for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


# -- finite abelian groups as plain data ------------------------------------

def _factors(rng, max_order, max_factors=2):
    while True:
        k = rng.randint(1, max_factors)
        factors = [rng.choice(FACTORS) for _ in range(k)]
        if math.prod(factors) <= max_order:
            return factors


def finite_group(rng, max_order, scramble=True, factors=None):
    """A finite group Z/d1 + ... in some presentation.

    Returns {"mods", "relations", "P", "Pinv"}: coordinates x of this
    presentation have standard coordinates y = P x (taken mod `mods`),
    and x = Pinv y.  The scrambled presentation has relation rows D V for
    a random unimodular V (so P = V^-T, Pinv = V^T), sometimes plus a
    redundant integer combination of the rows.
    """
    mods = list(factors) if factors is not None else _factors(rng, max_order)
    n = len(mods)
    rows = [[d if i == j else 0 for j in range(n)] for i, d in enumerate(mods)]
    if not (scramble and rng.random() < 0.5):
        return {"mods": mods, "relations": rows, "P": identity(n),
                "Pinv": identity(n)}
    V, V_inv = identity(n), identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-2, 2)
            for r in range(n):        # column op on V, row op on V^-1
                V[r][i] += q * V[r][j]
            for c in range(n):
                V_inv[j][c] -= q * V_inv[i][c]
    rel = matmul(rows, V)
    if rng.random() < 0.5:
        coeffs = [rng.randint(-1, 1) for _ in rel]
        rel.append([sum(c * r[j] for c, r in zip(coeffs, rel))
                    for j in range(n)])
    return {"mods": mods, "relations": rel, "P": transpose(V_inv),
            "Pinv": transpose(V)}


def random_morphism(rng, G, H):
    """Matrix of a well-defined morphism G -> H.

    In standard coordinates a component Z/d -> Z/m is a multiple of
    m / gcd(d, m); the matrix is Pinv_H C P_G in the presentations.
    """
    C = [[0] * len(G["mods"]) for _ in H["mods"]]
    for i, d in enumerate(G["mods"]):
        for j, m in enumerate(H["mods"]):
            step = m // math.gcd(d, m)
            C[j][i] = step * rng.randrange(m // step)
    return matmul(matmul(H["Pinv"], C), G["P"])


def random_automorphism(rng, G, H):
    """Matrix of an isomorphism between two presentations of one group."""
    n = len(G["mods"])
    C = [[0] * n for _ in range(n)]
    for i, d in enumerate(G["mods"]):
        C[i][i] = rng.choice([u for u in range(1, d) if math.gcd(u, d) == 1])
    return matmul(matmul(H["Pinv"], C), G["P"])


def random_element(rng, G):
    return [rng.randint(-6, 6) for _ in G["mods"]]


def kernel_elements(G, H, M):
    """All x (in G's presentation) with M x = 0 in H, by enumeration of
    the standard coordinates of G (|G| <= 100)."""
    found = []
    for y in itertools.product(*[range(d) for d in G["mods"]]):
        x = matvec(G["Pinv"], y)
        z = matvec(H["P"], matvec(M, x))
        if all(v % m == 0 for v, m in zip(z, H["mods"])):
            found.append(x)
    return found


def nonnegative(G, x):
    """The same element with nonnegative coordinates: the exponent of a
    finite group times any vector lies in its relation lattice."""
    e = math.lcm(*G["mods"])
    return [v % e for v in x]


def group_json(G):
    return {"generators": len(G["mods"]), "relations": G["relations"]}


def random_square(rng, max_order=60):
    """Plain data of a commutative square with a diagonal fill, drawn like
    ``abtqft.testing.random_square``: f_mor = lam . phi_H, f_ob = phi_G . lam.
    """
    iso = rng.random() < 0.4
    if iso:
        factors = _factors(rng, max_order)
        H_mor = finite_group(rng, max_order, scramble=False, factors=factors)
        H_ob = finite_group(rng, max_order, scramble=False, factors=factors)
        phi_H = random_automorphism(rng, H_mor, H_ob)
    else:
        H_mor = finite_group(rng, max_order)
        H_ob = finite_group(rng, max_order)
        phi_H = random_morphism(rng, H_mor, H_ob)
    G_mor = finite_group(rng, max_order)
    G_ob = finite_group(rng, max_order)
    phi_G = random_morphism(rng, G_mor, G_ob)
    lam = random_morphism(rng, H_ob, G_mor)
    return {"H_mor": H_mor, "H_ob": H_ob, "G_mor": G_mor, "G_ob": G_ob,
            "phi_H": phi_H, "phi_G": phi_G, "lam": lam,
            "f_mor": matmul(lam, phi_H), "f_ob": matmul(phi_G, lam)}


# -- algebra ----------------------------------------------------------------

def _hom_op(rng):
    A_mor = finite_group(rng, 100)
    A_ob = finite_group(rng, 100)
    phi = random_morphism(rng, A_mor, A_ob)
    a = random_element(rng, A_ob)
    if rng.random() < 0.5:        # b = a + phi(x): a non-empty hom-set
        b = [u + v for u, v in zip(a, matvec(phi, random_element(rng, A_mor)))]
    else:
        b = random_element(rng, A_ob)
    return {"kind": "hom", "A_mor": A_mor, "A_ob": A_ob, "phi": phi,
            "a": a, "b": b}


def _fiber_objects(rng, sq):
    """Two objects (g, h) of the homotopy fiber: g = lam(h) always works."""
    h1 = random_element(rng, sq["H_ob"])
    p = [matvec(sq["lam"], h1), h1]
    if rng.random() < 0.5:        # q = p + (f_mor x, phi_H x): connected
        x = random_element(rng, sq["H_mor"])
        q = [[u + v for u, v in zip(p[0], matvec(sq["f_mor"], x))],
             [u + v for u, v in zip(p[1], matvec(sq["phi_H"], x))]]
    else:
        h2 = random_element(rng, sq["H_ob"])
        q = [matvec(sq["lam"], h2), h2]
    return p, q


def _hofiber_op(rng):
    sq = random_square(rng)
    p, q = _fiber_objects(rng, sq)
    return {"kind": "hofiber", "square": sq, "p": p, "q": q}


def _xi_op(rng):
    sq = random_square(rng)
    ker = kernel_elements(sq["G_mor"], sq["G_ob"], sq["phi_G"])
    k = rng.choice(ker)
    h = random_element(rng, sq["H_ob"])
    g = [u + v for u, v in zip(matvec(sq["lam"], h), k)]
    return {"kind": "xi", "square": sq, "object": [g, h], "xi_value": k}


def _large_op(rng, n, shape):
    """Integer matrix with entries in [-5, 5]: n x n, n x n of rank n - 2
    (two rows are differences of earlier ones), n x (n+4) or (n+4) x n."""
    rows = n + 4 if shape == "tall" else n
    cols = n + 4 if shape == "wide" else n
    M = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
    if shape == "rank-deficient":
        for r in (rows - 1, rows - 2):
            a, b = rng.randrange(r), rng.randrange(r)
            M[r] = [M[a][j] - M[b][j] for j in range(cols)]
    xs = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(3)]
    return {"kind": "large", "n": n, "shape": shape, "M": M,
            "rhs": [matvec(M, x) for x in xs]}


def algebra(seed, tiny=False):
    rng = random.Random(f"algebra/{seed}")
    counts = {k: (4 if tiny else v) for k, v in ALGEBRA_SMALL.items()}
    makers = {"hom": _hom_op, "hofiber": _hofiber_op, "xi": _xi_op}
    ops = [makers[k](rng) for k, c in counts.items() for _ in range(c)]
    large = ALGEBRA_LARGE[:2] if tiny else ALGEBRA_LARGE
    ops += [_large_op(rng, n, shape) for n, shape in large]
    rng.shuffle(ops)
    return ops


# -- geometry ---------------------------------------------------------------

def _su_op(rng, pools, p):
    i1, i2 = rng.sample(range(len(pools[p])), 2)
    return {"kind": "su", "pool": p, "first": list(pools[p][i1]),
            "second": list(pools[p][i2]),
            "jitter": [[rng.random() for _ in range(JITTER_VALUES)]
                       for _ in range(2)],
            "shift_edge": rng.random(), "shift": rng.randint(1, 3)}


def _stokes_op(rng):
    nx, ny = rng.randint(1, 4), rng.randint(1, 4)
    n_edges = nx * (ny + 1) + ny * (nx + 1) + nx * ny
    n_faces = 2 * nx * ny
    chain = [f for f in range(n_faces) if rng.random() < 0.7] or [0]
    return {"kind": "stokes", "nx": nx, "ny": ny,
            "omega": [rng.uniform(-3, 3) for _ in range(n_edges)],
            "turns": [rng.uniform(0, 1) for _ in range(n_edges)],
            "lifts": [rng.randint(-2, 2) for _ in range(n_faces)],
            "chain": chain}


def _torus_op(rng, n):
    return {"kind": "torus", "n": n, "torus": rng.choice(TORUS_KINDS),
            "puncture": rng.randrange(n * n)}


def geometry(seed, su_pools, tiny=False):
    rng = random.Random(f"geometry/{seed}")
    counts = {k: (6 if tiny else v) for k, v in GEOMETRY_SMALL.items()}
    ops = [_su_op(rng, su_pools, i % len(su_pools))
           for i in range(counts["su"])]
    ops += [_stokes_op(rng) for _ in range(counts["stokes"])]
    sizes = GEOMETRY_SIZES[:1] if tiny else GEOMETRY_SIZES
    ops += [_torus_op(rng, n) for n in sizes]
    rng.shuffle(ops)
    return ops


# -- cli-session --------------------------------------------------------------

# the README commands on samples/, with the values the README states
SAMPLE_COMMANDS = [
    (["group", "smith", "samples/matrix.json"], ["D = diag(2,4)"]),
    (["group", "kernel", "samples/proj24.json"], ["ker = Z", "incl = [[24]]"]),
    (["group", "pullback", "samples/times2.json", "samples/times3.json"],
     ["P = Z, gen (3,2)"]),
    (["group", "iso", "samples/times2.json"], ["false"]),
    (["group", "solve", "samples/proj24.json", "7"], ["x = (7)"]),
    (["cat", "hom", "samples/times2.json", "0", "4"], ["particular = (2)"]),
    (["cat", "hofiber", "samples/mirror24.json"], ["object group = Z^2"]),
    (["cat", "xi", "samples/mirror24.json", "--oracle"],
     ["equivalence: true; target: ker = Z (gen (24))"]),
    (["geo", "stokes", "samples/mesh_square.json", "samples/cochain1.json"],
     []),
    (["geo", "holonomy", "samples/mesh_square.json",
      "samples/conn_square.json", "--loop", "0,1,2,3"], []),
    (["geo", "chern", "builtin:icosahedron", "tangent"], ["2"]),
    (["geo", "chern", "builtin:genus2", "tangent"], ["-2"]),
    (["bnr", "psi", "samples/scene_s3.json", "--certify"],
     ["raw=1 int=1 mod24=1 convention=psi(S3-Lie,D4-flat)=+1"]),
    (["bnr", "psi", "samples/scene_s3_k3.json", "--certify"], []),
    (["bnr", "su", "samples/scene_su.json"],
     ["raw=1 int=1 mod2=1 convention=su-lifts"]),
    (["bnr", "table", "validate"], ["valid"]),
]


def _s3_component(refinement=None, k3=0):
    eta = {"provider": "table", "key": "Lie-framing"}
    if refinement is not None:
        eta = {"provider": "quadrature", "key": "Lie-framing",
               "params": {"refinement": refinement}}
    return {"m3": {"key": "S3"}, "eta": eta, "w4": {"key": "D4"},
            "nabla": {"provider": "table", "key": "flat-extension",
                      "params": {"glue": ["K3"] * k3}}}


EMPTY_COMPONENT = {"m3": {"key": "empty"}, "eta": {"key": "empty"},
                   "w4": {"key": "empty"}, "nabla": {"key": "empty"}}


def _psi_union(rng, refinement):
    comps = [_s3_component(refinement, rng.randint(0, 1))]
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.3:
            comps.append(EMPTY_COMPONENT)
        else:
            comps.append(_s3_component(None, rng.randint(0, 2)))
    rng.shuffle(comps)
    n_s3 = sum(1 for c in comps if c["m3"]["key"] == "S3")
    n_k3 = sum(len(c["nabla"].get("params", {}).get("glue", []))
               for c in comps)
    return {"union": comps}, n_s3 + K3_HALF_P1 * n_k3


def cli_session(seed, su_pools, tiny=False):
    """Commands of one batch, then `suite acceptance` marked `once` (it
    runs once per run, after the passes): kind, argv, files to write,
    expectations.

    Every seeded command works on files the setup writes to a scratch
    directory; `expect` carries what the untimed check compares against.
    """
    rng = random.Random(f"cli-session/{seed}")
    cmds = []

    def add(kind, argv, files=None, **expect):
        if rng.random() < 0.25 and kind not in ("acceptance", "sample"):
            argv = ["--format", "json"] + argv
        cmds.append({"kind": kind, "argv": argv, "files": files or {},
                     "expect": expect})

    for argv, readme in (SAMPLE_COMMANDS[:3] if tiny else SAMPLE_COMMANDS):
        add("sample", argv, readme=readme)
    n = 1
    for i in range(n):
        M = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
        add("smith", ["group", "smith", f"smith{i}.json"],
            {f"smith{i}.json": M}, matrix=M)
    for i in range(n):
        rows, cols = rng.randint(2, 4), rng.randint(3, 5)
        M = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        mor = {"matrix": M, "source": {"generators": cols, "relations": []},
               "target": {"generators": rows, "relations": []}}
        add("kernel", ["group", "kernel", f"kernel{i}.json"],
            {f"kernel{i}.json": mor}, matrix=M)
    for i in range(n):
        mods = [rng.choice((0, 0) + FACTORS) for _ in range(rng.randint(2, 3))]
        cols = rng.randint(2, 4)
        M = [[rng.randint(-4, 4) for _ in range(cols)] for _ in mods]
        target = {"generators": len(mods),
                  "relations": [[d if i == j else 0 for j in range(len(mods))]
                                for i, d in enumerate(mods) if d]}
        mor = {"matrix": M, "source": {"generators": cols, "relations": []},
               "target": target}
        rhs = matvec(M, [rng.randint(-5, 5) for _ in range(cols)])
        # argparse reads a leading minus as an option: keep the rhs
        # nonnegative by flipping free rows and reducing torsion ones
        for j, d in enumerate(mods):
            if d:
                rhs[j] %= d
            elif rhs[j] < 0:
                M[j], rhs[j] = [-v for v in M[j]], -rhs[j]
        add("solve", ["group", "solve", f"solve{i}.json",
                      ",".join(map(str, rhs))],
            {f"solve{i}.json": mor}, matrix=M, mods=mods, rhs=rhs)
    for i in range(n):
        op = _hom_op(rng)
        mor = {"matrix": op["phi"], "source": group_json(op["A_mor"]),
               "target": group_json(op["A_ob"])}
        a, b = (",".join(map(str, nonnegative(op["A_ob"], x)))
                for x in (op["a"], op["b"]))
        add("hom", ["cat", "hom", f"hom{i}.json", a, b, "--oracle"],
            {f"hom{i}.json": mor})
    for _ in range(n):
        name = rng.choice(sorted(BUILTIN_EULER))
        add("chern", ["geo", "chern", f"builtin:{name}", "tangent"],
            euler=BUILTIN_EULER[name])
    for i in range(n):             # a scene and the same scene lift-shifted
        p = rng.randrange(len(su_pools))
        (m1, v1), (m2, v2) = rng.sample(su_pools[p], 2)
        spec = {"primary": {"mesh": m1, "puncture": v1},
                "boundings": [{"mesh": m2, "puncture": v2}]}
        if rng.random() < 0.5:
            spec["boundings"].append({"kind": "disk",
                                      "lift": rng.randint(-2, 2)})
        shift = [rng.randrange(4), rng.randint(1, 3)]
        for j, scene in enumerate((spec, dict(spec, lift_shifts=[shift]))):
            name = f"su{i}{'ab'[j]}.json"
            add("su", ["bnr", "su", name], {name: {"su": scene}},
                pair=i, shift=shift[1] if j else 0)
    for r in REFINEMENTS[:1] if tiny else REFINEMENTS:
        scene, integer = _psi_union(rng, r)
        add("psi", ["bnr", "psi", f"psi_r{r}.json", "--certify"],
            {f"psi_r{r}.json": scene}, integer=integer)
    for r in REFINEMENTS[:1] if tiny else REFINEMENTS:
        add("cs", ["bnr", "cs", "--refine", str(r)], refinement=r)
    # a reproducibility record on a seeded share of the commands
    for c in cmds:
        if c["kind"] != "sample" and rng.random() < 0.2:
            c["record"] = True
    rng.shuffle(cmds)
    if not tiny:
        add("acceptance", ["suite", "acceptance"])
        cmds[-1]["once"] = True
    return cmds
