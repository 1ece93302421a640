"""The acceptance suite: eleven executable criteria with fixed seeds.

Each criterion returns (ok, detail); `run_all` prints one PASS/FAIL line
per criterion.  The tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import math
import random
import time

from . import fgab, intmat, moncat, testing
from .discrete import (Cochain, LatticeConnection, check_stokes,
                       holonomy_curvature_gap, tangent_connection,
                       triangulated_grid)
from .discrete.surfaces import flat_torus, genus2_surface, icosahedron
from .invariants import (BnrScene, cs_su2_quadrature, eta_integral,
                         half_p1_integral, psi, random_su_scene,
                         shipped_table, sphere_volume_quadrature, su_psi,
                         validate_table)


def criterion_1_smith_oracle():
    """500 random 3x3 matrices: U M V = D, divisor chain, unimodularity."""
    rng = random.Random(101)
    for trial in range(500):
        M = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        s = intmat.smith(M)
        U, V, dg = s.u_rows(), s.v_rows(), s.diag
        D = tuple(tuple(dg[i] if i == j else 0 for j in range(3))
                  for i in range(3))
        if intmat.matmul(intmat.matmul(U, M, 3), V, 3) != D:
            return False, f"trial {trial}: U M V != D"
        for i in range(2):
            if dg[i] != 0 and dg[i + 1] % dg[i] != 0:
                return False, f"trial {trial}: chain broken {dg}"
        if abs(intmat.det(U)) != 1 or abs(intmat.det(V)) != 1:
            return False, f"trial {trial}: transform not unimodular"
    return True, "500 matrices, exact"


def criterion_2_hom_oracle():
    """50 random morphism categories vs exhaustive hom-set search."""
    rng = random.Random(202)
    for trial in range(50):
        A_mor = testing.random_finite_group(rng, 100)
        A_ob = testing.random_finite_group(rng, 100)
        phi = testing.random_morphism(rng, A_mor, A_ob)
        cat = moncat.MorTensorCat(phi)
        table, _ = testing.brute_hom_table(phi)
        for a in A_ob.elements():
            ka = a.key()
            for b in A_ob.elements():
                hs = cat.hom(a, b)
                brute = table.get((ka, b.key()), set())
                if hs.is_empty:
                    if brute:
                        return False, f"trial {trial}: empty vs {len(brute)}"
                elif hs.element_keys() != brute:
                    return False, f"trial {trial}: coset mismatch at {a},{b}"
    return True, "50 categories, all object pairs, exact"


def criterion_3_hofiber_lemma():
    """50 random squares: fiber objects and connecting solution sets."""
    rng = random.Random(303)
    for trial in range(50):
        square, _ = testing.random_square(rng, max_order=60)
        fiber = moncat.HofibCat(square)
        enumerated = testing.brute_fiber_objects(square)
        from_pullback = set()
        for p in fiber.object_group.elements():
            g, h = fiber.pullback.pair(p)
            from_pullback.add((g.key(), h.key()))
        if enumerated != from_pullback:
            return False, f"trial {trial}: object sets differ"
        buckets = testing.brute_connecting_buckets(square)
        unit = fiber.unit()
        for p in fiber.object_group.elements():
            dg, dh = fiber.pullback.pair(p)
            hs = fiber.hom(unit, (dg, dh))
            brute = buckets.get((dg.key(), dh.key()), set())
            if hs.is_empty:
                if brute:
                    return False, f"trial {trial}: missed solutions"
            elif hs.element_keys() != brute:
                return False, f"trial {trial}: solution coset mismatch"
    return True, "50 squares, objects and all connecting systems, exact"


def criterion_4_xi_criterion():
    """Equivalence test vs enumeration vs invertibility of phi_H."""
    rng = random.Random(404)
    n_iso = 0
    for trial in range(50):
        square, fill = testing.random_square(rng, max_order=60)
        fast = moncat.xi_is_equivalence(square, fill)
        slow = moncat.xi_equivalence_by_enumeration(square, fill)
        via_phi = fgab.is_isomorphism(square.phi_H)
        if not (fast == slow == via_phi):
            return False, f"trial {trial}: {fast} vs {slow} vs {via_phi}"
        n_iso += fast
    if not 0 < n_iso < 50:
        return False, f"degenerate sample: {n_iso}/50 equivalences"
    return True, f"50 squares, {n_iso} equivalences, 100% agreement"


def criterion_5_mirror_factorization():
    """The integral mirror square: Xi is (g, h) -> g - h onto 24Z."""
    square, fill = moncat.mirror_exp_square()
    xi = moncat.XiFunctor(moncat.HofibCat(square), fill)
    if xi.kernel_incl.matrix != ((24,),):
        return False, f"kernel not 24Z: {xi.kernel_incl.matrix}"
    if (xi.kernel_group.invariant_factors, xi.kernel_group.free_rank) != ((), 1):
        return False, "kernel group is not infinite cyclic"
    G_mor, H_ob = square.phi_G.source, square.phi_H.target
    rng = random.Random(505)
    for _ in range(100):
        h = rng.randint(-50, 50)
        g = h + 24 * rng.randint(-4, 4)
        value, coords = xi.apply_object((G_mor.element([g]), H_ob.element([h])))
        if value.coords != (g - h,):
            return False, f"Xi({g},{h}) = {value.coords}, expected {g - h}"
        if coords.coords != ((g - h) // 24,):
            return False, "kernel coordinates wrong"
    # essential surjectivity onto the kernel
    for k in range(-3, 4):
        value, coords = xi.apply_object((G_mor.element([24 * k]),
                                         H_ob.element([0])))
        if coords.coords != (k,):
            return False, f"generator {k} not hit"
    return True, "mirror square factorization exact, image group = 24Z"


def criterion_6_stokes_holonomy():
    """200 random 2-complex scenes: Stokes and holonomy-curvature."""
    rng = random.Random(606)
    for trial in range(200):
        W = triangulated_grid(rng.randint(1, 4), rng.randint(1, 4))
        omega = Cochain(W, 1, [rng.uniform(-3, 3)
                               for _ in range(W.n_cells[1])])
        lhs, rhs = check_stokes(W, omega)
        if abs(lhs - rhs) > 1e-12:
            return False, f"trial {trial}: stokes gap {abs(lhs - rhs)}"
        conn = LatticeConnection(
            W, [rng.uniform(0, 1) for _ in range(W.n_cells[1])],
            [rng.randint(-2, 2) for _ in range(W.n_cells[2])])
        chain = [(f, 1) for f in range(W.n_cells[2]) if rng.random() < 0.7]
        if not chain:
            chain = [(0, 1)]
        gap = holonomy_curvature_gap(conn, chain)
        if gap > 1e-12:
            return False, f"trial {trial}: holonomy gap {gap}"
    return True, "200 scenes within 1e-12"


def criterion_7_gauss_bonnet():
    """Tangent-transport Chern numbers are Euler characteristics."""
    expected = [(icosahedron(), 2), (flat_torus(4, 4), 0),
                (genus2_surface(), -2)]
    got = []
    for surface, chi in expected:
        bundle = tangent_connection(surface)
        c = bundle.chern_number()
        got.append(c)
        if c != chi:
            return False, f"{surface.name}: chern {c} != {chi}"
    return True, f"icosahedron/torus/genus2 -> {got}"


def criterion_8_table():
    """Shipped 4-manifold table satisfies the index arithmetic."""
    entries = shipped_table()
    violations = validate_table(entries.values())
    if violations:
        return False, f"violations: {violations}"
    k3 = entries["K3"]
    half = k3.half_p1()
    if half != -24 or half % 24 != 0:
        return False, f"K3 half-p1 {half}"
    return True, f"{len(entries)} entries valid; K3 half-p1 = -24 = 0 mod 24"


def criterion_9_chern_simons():
    """Winding quadrature: signed unit, monotone, exact sphere volume.

    The 60 s budget is checked but not printed, so the detail is the
    same on every run.
    """
    t0 = time.time()
    values = [cs_su2_quadrature(n) for n in (1, 2, 3, 4)]
    errors = [abs(abs(v) - 1.0) for v in values]
    if abs(abs(values[-1]) - 1.0) > 1e-3:
        return False, f"|cs(4)| = {abs(values[-1])}"
    if any(errors[i + 1] >= errors[i] for i in range(3)):
        return False, f"not monotone: {errors}"
    vol_gap = abs(sphere_volume_quadrature(4) - 2.0 * math.pi ** 2)
    if vol_gap > 1e-6:
        return False, f"volume gap {vol_gap}"
    elapsed = time.time() - t0
    if elapsed > 60.0:
        return False, f"budget exceeded: {elapsed:.1f}s"
    return True, (f"cs(4) = {values[-1]:.9f}, errors {errors[0]:.2e} -> "
                  f"{errors[-1]:.2e} monotone, vol gap {vol_gap:.2e}")


def criterion_10_psi_pipeline():
    """Generator scene, bounding-change certificate, factorization."""
    scene = BnrScene.s3_lie()
    result = psi(scene, certify=True)
    if abs(result.integer_value) != 1:
        return False, f"generator value {result.integer_value}"
    if math.gcd(result.residue, 24) != 1:
        return False, f"residue {result.residue} does not generate Z/24"
    glued = psi(BnrScene.s3_lie(glue=["K3"]))
    if glued.integer_value != result.integer_value - 24:
        return False, f"K3 gluing: {glued.integer_value}"
    if glued.residue != result.residue:
        return False, "gluing changed the residue"
    # psi sums Xi(g, h) = g - h over the analytic square; the integral
    # formula, summed from the components, must give the same float
    formula = 0.0
    for c in scene.components:
        formula += (half_p1_integral(c.w4, c.nabla, c.glue)
                    - eta_integral(c.m3, c.eta, c.refinement))
    if formula != result.raw:
        return False, "factorization not bit-identical"
    diffs = {c["difference"] % 24 for c in result.certificate}
    if diffs != {0}:
        return False, f"certificate differences {diffs}"
    return True, (f"psi = {result.integer_value}, residue {result.residue}; "
                  f"K3 shift -24; certificate all = 0 mod 24; "
                  "factorization bit-identical")


def criterion_11_su_pipeline():
    """100 random tangent scenes: integral, even differences, shifts."""
    rng = random.Random(1111)
    for trial in range(100):
        scene = random_su_scene(rng)
        result = su_psi(scene)
        for entry in result.certificate:
            if entry["difference"] % 2 != 0:
                return False, f"trial {trial}: odd difference"
        k = rng.randint(1, 3)
        edge = rng.randrange(len(scene.lifts))
        shifted = su_psi(scene.shifted(edge, k))
        if shifted.integer_value != result.integer_value - k:
            return False, f"trial {trial}: shift by {k} broke linearity"
        if shifted.residue != (result.residue - k) % 2:
            return False, f"trial {trial}: shift parity wrong"
    return True, "100 scenes integral, even differences, shifts act as stated"


CRITERIA = [
    ("1 smith-normal-form oracle", criterion_1_smith_oracle),
    ("2 hom-set oracle", criterion_2_hom_oracle),
    ("3 homotopy-fiber lemma", criterion_3_hofiber_lemma),
    ("4 xi equivalence criterion", criterion_4_xi_criterion),
    ("5 mirror factorization", criterion_5_mirror_factorization),
    ("6 stokes and holonomy-curvature", criterion_6_stokes_holonomy),
    ("7 gauss-bonnet degrees", criterion_7_gauss_bonnet),
    ("8 4-manifold table", criterion_8_table),
    ("9 su2 chern-simons quadrature", criterion_9_chern_simons),
    ("10 psi pipeline", criterion_10_psi_pipeline),
    ("11 su mod-2 pipeline", criterion_11_su_pipeline),
]


def run_all(out=print):
    """Run every criterion; returns True iff all pass."""
    all_ok = True
    for name, fn in CRITERIA:
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        out(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return all_ok
