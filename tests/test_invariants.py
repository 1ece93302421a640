import json
import math
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest

import abtqft.discrete as D
import abtqft.invariants as I
from abtqft.analytic import circle_distance, wrap_unit
from abtqft.invariants import scenes as scn
from abtqft.reader import ShapeError


# -- table ---------------------------------------------------------------------

def test_shipped_table_valid():
    entries = I.shipped_table()
    assert I.validate_table(entries.values()) == []
    assert entries["K3"].half_p1() == -24
    assert entries["S4"].a_hat == 0


def test_table_detects_corruption():
    bad = I.Closed4Entry("bad", -24, -8, "1", True)
    violations = I.validate_table([bad])
    conditions = {v[1] for v in violations}
    assert "spin p1 = 0 mod 48" in conditions
    assert "spin a_hat even" in conditions

    wrong_ahat = I.Closed4Entry("wrong", -48, -16, "3", True)
    violations = I.validate_table([wrong_ahat])
    assert any(v[1] == "a_hat = -p1/24" for v in violations)

    wrong_sig = I.Closed4Entry("sig", -48, -15, "2", True)
    violations = I.validate_table([wrong_sig])
    assert any(v[1] == "p1 = 3*signature" for v in violations)

    third = I.Closed4Entry("third", -8, 0, "1/3", True)
    assert ("third", "spin a_hat integral",
            "a_hat=1/3 not an integer") in I.validate_table([third])


def test_a_corrupt_shipped_table_is_refused(monkeypatch, tmp_path):
    from abtqft.invariants import table
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "spin4_table.json").write_text(json.dumps([
        I.Closed4Entry("K3", -48, -16, "2", True).to_json(),
        I.Closed4Entry("half-K3", -24, -8, "1", True).to_json()]))
    monkeypatch.setattr(table, "_shipped", None)
    monkeypatch.setattr(table, "resources",
                        SimpleNamespace(files=lambda package: tmp_path))
    with pytest.raises(ValueError, match=r"^shipped 4-manifold table "
                       r"corrupt: \[\('half-K3', 'spin a_hat even'"):
        table.shipped_table()


def test_entry_json_roundtrip():
    e = I.Closed4Entry("X", 48, 16, "-2", True)
    e2 = I.Closed4Entry.from_json(e.to_json())
    assert e2.a_hat == e.a_hat and e2.integral_p1 == e.integral_p1
    with pytest.raises(ValueError):
        I.Closed4Entry.from_json({"name": "Y", "integral_p1": 1.5,
                                  "signature": 0, "a_hat": "0"})
    with pytest.raises(ShapeError,
                       match="^spin: expected true or false, got 'yes'$"):
        I.Closed4Entry.from_json({"name": "Y", "integral_p1": 0,
                                  "signature": 0, "a_hat": "0",
                                  "spin": "yes"})


# -- field theory values on discrete scenes -------------------------------------

def _two_circles():
    """Two disjoint 3-edge circles in one complex."""
    return D.CellComplex(
        {0: 6, 1: 6},
        {1: [[(i, -1), ((i + 1) % 3, 1)] for i in range(3)]
            + [[(3 + i, -1), (3 + (i + 1) % 3, 1)] for i in range(3)]})


def test_z_stokes_closed_examples():
    C3 = D.circle_complex(3)
    unit = D.Cochain(C3, 1, [1.0, 1.0, 1.0])
    assert D.integrate(unit, C3.fundamental_chain(1)) == 3.0

    # an exact boundary scene gives zero: the circle bounds the disk and
    # the cochain extends as a coboundary
    W = D.triangulated_grid(3, 3)
    f = D.Cochain(W, 0, [math.sin(i) for i in range(W.n_cells[0])])
    omega = D.coboundary(f)
    boundary = W.boundary_of(2, W.fundamental_chain(2))
    assert abs(D.integrate(omega, boundary)) <= 1e-12
    assert abs(D.integrate(D.coboundary(omega),
                           W.fundamental_chain(2))) <= 1e-12

    # disjoint union: sum of parts (two circles in one complex)
    two = _two_circles()
    omega2 = D.Cochain(two, 1, [1.0] * 3 + [0.5] * 3)
    assert D.integrate(omega2, two.fundamental_chain(1)) == pytest.approx(4.5)


def test_z_hol_examples():
    C3 = D.circle_complex(3)
    trivial = D.LatticeConnection(C3, np.zeros(3))
    assert D.holonomy(trivial, C3.fundamental_chain(1)) == 0.0

    # two disjoint circles multiply (turns add)
    two = _two_circles()
    conn = D.LatticeConnection(two, [0.1, 0.1, 0.1, 0.2, 0.1, 0.05])
    assert D.holonomy(conn, two.fundamental_chain(1)) == pytest.approx(
        wrap_unit(0.65))

    # functoriality: the lifted curvature of a disk exponentiates to the
    # holonomy of the circle it bounds
    disk = D.polygon_disk(4)
    conn2 = D.LatticeConnection(disk, [0.3, 0.2, 0.4, 0.35], [2])
    rel = D.total_curvature(conn2, disk.fundamental_chain(2))
    hol = D.boundary_holonomy(conn2, [(0, 1)])
    assert circle_distance(rel, hol) <= 1e-12


# -- circle values -------------------------------------------------------------

def test_z_spin_values():
    assert wrap_unit(-1.0) == 0.0  # exp(-2 pi i) = 1
    assert wrap_unit(0.25) == 0.25
    # closed-manifold check through the table
    k3 = I.shipped_table()["K3"]
    assert float(k3.half_p1()) == -24.0


# -- providers -------------------------------------------------------------------

def test_provider_table_vs_quadrature():
    a = I.eta_integral("S3", "Lie-framing")
    b = I.eta_integral("S3", "Lie-framing", refinement=1)
    assert abs(a - b) < 1e-3
    # the quadrature's own signed value, not its absolute value
    assert b == I.cs_su2_quadrature(1) < 0


def test_provider_rejects_quadrature_of_wrong_sign(monkeypatch):
    # an orientation bug in the quadrature flips its sign; the provider
    # must report it as a computation fault instead of forcing the
    # table's sign
    monkeypatch.setitem(scn._cs_cache, 1, 1.0)
    with pytest.raises(ArithmeticError, match="sign"):
        I.eta_integral("S3", "Lie-framing", refinement=1)


def _s3_component(eta=None, nabla=None):
    return {"m3": {"key": "S3"},
            "eta": {"key": "Lie-framing", **(eta or {})},
            "w4": {"key": "D4"},
            "nabla": {"key": "flat-extension", **(nabla or {})}}


def test_provider_rejects_unknown_and_quadrature_4d():
    # a scene is checked when it is built: an unknown structure, a 4d
    # quadrature and a non-spin glue never reach the integrals
    with pytest.raises(ShapeError, match="eta.key"):
        I.BnrScene([_s3_component(eta={"key": "unknown-structure"})])
    with pytest.raises(I.ProviderError):
        I.BnrScene([_s3_component(nabla={"provider": "quadrature"})])
    with pytest.raises(I.ProviderError, match=re.escape(
            "nabla.params.glue[1]: expected a spin closed 4-manifold, got "
            "'CP2'")):
        I.BnrScene([_s3_component(nabla={"params": {"glue": ["K3", "CP2"]}})])
    with pytest.raises(ShapeError, match="eta.provider"):
        I.BnrScene([_s3_component(eta={"provider": "oracle"})])


def test_scene_rejects_user_compatibility_flag():
    with pytest.raises(I.IncompatibleScene):
        I.BnrScene([{"m3": {"key": "S3"}, "eta": {"key": "Lie-framing"},
                     "w4": {"key": "D4"},
                     "nabla": {"key": "flat-extension"},
                     "compatible": True}])


def test_scene_needs_a_bounding():
    with pytest.raises(I.IncompatibleScene,
                       match="^scene needs at least one bounding$"):
        I.SuScene([0.5], [])


def test_scene_rejects_mismatched_bounding():
    with pytest.raises(I.IncompatibleScene, match=re.escape(
            "nabla.key: expected a bounding datum of ('empty', 'empty') with "
            "matching restriction, got ('D4', 'flat-extension')")):
        I.BnrScene([{"m3": {"key": "empty"}, "eta": {"key": "empty"},
                     "w4": {"key": "D4"}, "nabla": {"key": "flat-extension"}}])


# -- psi -------------------------------------------------------------------------

def test_psi_generator_and_gluing():
    base = I.psi(I.BnrScene.s3_lie(), certify=True)
    assert base.integer_value == 1 and base.residue == 1
    assert math.gcd(base.residue, 24) == 1
    for entry in base.certificate:
        assert entry["difference"] % 24 == 0

    glued = I.psi(I.BnrScene.s3_lie(glue=["K3"]))
    assert glued.integer_value == -23
    assert glued.residue == base.residue

    double = I.psi(I.BnrScene.s3_lie(glue=["K3", "K3"]))
    assert double.integer_value == -47


def test_psi_empty_and_union():
    assert I.psi(I.BnrScene.empty()).integer_value == 0
    u = I.BnrScene.s3_lie().union(I.BnrScene.s3_lie(glue=["K3-rev"]))
    assert I.psi(u).integer_value == 1 + 25


def test_psi_union_json():
    scene = I.BnrScene.from_json({"union": [
        {"m3": {"key": "S3"}, "eta": {"key": "Lie-framing"},
         "w4": {"key": "D4"}, "nabla": {"key": "flat-extension"}},
        {"m3": {"key": "empty"}, "eta": {"key": "empty"},
         "w4": {"key": "empty"}, "nabla": {"key": "empty"}},
    ]})
    assert I.psi(scene).integer_value == 1


def test_psi_integrality_enforced(monkeypatch):
    monkeypatch.setitem(scn._ETA_TABLE, ("S3", "Lie-framing"), -1.4)
    with pytest.raises(I.NonIntegralInvariant, match=re.escape(
            "Xi(g, h) = 1.4 is 4.000e-01 from the nearest integer "
            "(tolerance 1e-06)")):
        I.psi(I.BnrScene.s3_lie())


def test_psi_certificate_gates_each_alternative(monkeypatch):
    # an odd Pontryagin number puts the +K3 alternative half-way between
    # integers while the given bounding stays integral
    I.shipped_table()
    monkeypatch.setitem(I.table._shipped, "K3",
                        I.Closed4Entry("K3", -47, -16, "2", True))
    assert I.psi(I.BnrScene.s3_lie()).integer_value == 1
    with pytest.raises(I.NonIntegralInvariant, match=re.escape(
            "alternative bounding +K3 of S3/Lie-framing|D4/flat-extension: "
            "Xi(g, h) = -22.5 is 5.000e-01")):
        I.psi(I.BnrScene.s3_lie(), certify=True)


def test_psi_certificate_rejects_corrupt_table(monkeypatch):
    # a K3 entry whose half-p1 is -23 moves the invariant off 24Z; the
    # certificate's 24Z check in InvariantResult must catch it
    I.shipped_table()
    monkeypatch.setitem(I.table._shipped, "K3",
                        I.Closed4Entry("K3", -46, -16, "2", True))
    with pytest.raises(I.ParityCertificateError):
        I.psi(I.BnrScene.s3_lie(), certify=True)


def test_psi_quadrature_provider():
    result = I.psi(I.BnrScene.s3_lie(eta_provider="quadrature",
                                     refinement=1))
    assert result.integer_value == 1
    assert abs(result.raw - 1.0) < 1e-3


def _integral_formula(scene):
    """Sum over components of half_p1_integral - eta_integral, read from
    the components directly rather than through `resolve`."""
    total = 0.0
    for c in scene.components:
        total += (I.half_p1_integral(c.w4, c.nabla, c.glue)
                  - I.eta_integral(c.m3, c.eta, c.refinement))
    return total


def test_hofiber_semantics_matches_psi():
    # psi is Xi(g, h) = g - h summed over the analytic square; its raw
    # value is the integral formula, bit for bit.  Each refine-1
    # quadrature component is 6.4e-7 from 1, so the union of two is
    # 1.3e-6 from 2: inside the bound the per-component gates imply
    q1 = I.BnrScene.s3_lie(eta_provider="quadrature", refinement=1)
    for scene in (I.BnrScene.s3_lie(), I.BnrScene.empty(),
                  I.BnrScene.s3_lie(glue=["K3"]),
                  I.BnrScene.s3_lie().union(I.BnrScene.empty()),
                  q1, q1.union(q1)):
        direct = _integral_formula(scene)
        assert I.psi(scene).raw == direct
        assert I.psi(scene).integer_value == round(direct)


def test_hofiber_semantics_rejects_incoherent_pair(monkeypatch):
    monkeypatch.setitem(scn._ETA_TABLE, ("S3", "Lie-framing"), -1.4)
    with pytest.raises(I.NonIntegralInvariant,
                       match=re.escape("S3/Lie-framing|D4/flat-extension")):
        I.psi(I.BnrScene.s3_lie())


def test_psi_union_gates_each_component(monkeypatch):
    # Xi values 1.4 and 0.6 sum to exactly 2, but neither component is
    # an object of the fiber; the error names the first offender
    monkeypatch.setitem(scn._ETA_TABLE, ("S3", "Lie-framing"), -1.4)
    monkeypatch.setitem(scn._ETA_TABLE, ("empty", "empty"), -0.6)
    scene = I.BnrScene.s3_lie().union(I.BnrScene.empty())
    label = "component S3/Lie-framing|D4/flat-extension"
    with pytest.raises(I.NonIntegralInvariant, match=re.escape(label)):
        I.psi(scene)


def test_result_rendering():
    r = I.psi(I.BnrScene.s3_lie())
    out = r.render()
    assert out.startswith("raw=1 int=1 mod24=1 convention=")


# -- chern-simons ------------------------------------------------------------------

def test_cs_quadrature_convergence():
    v1 = I.cs_su2_quadrature(1)
    assert abs(abs(v1) - 1.0) < 0.1
    vol = I.sphere_volume_quadrature(1)
    assert abs(vol - 2 * math.pi ** 2) < 1e-3


def test_cs_quadrature_refinement_4():
    v4 = I.cs_su2_quadrature(4)
    assert abs(abs(v4) - 1.0) < 1e-3
    assert abs(I.sphere_volume_quadrature(4) - 2 * math.pi ** 2) < 1e-6


def test_cs_rejects_bad_refinement():
    with pytest.raises(ValueError):
        I.cs_su2_quadrature(0)


@pytest.mark.parametrize("quadrature", ["cs_su2_quadrature",
                                        "sphere_volume_quadrature"])
@pytest.mark.parametrize("refinement", [1.9, 2.5, True])
def test_refinement_is_an_exact_integer(quadrature, refinement):
    # no truncation to a coarser grid: 1.9 is not refinement 1
    with pytest.raises(ValueError, match="refinement"):
        getattr(I, quadrature)(refinement)


def test_refinement_bound():
    from abtqft.invariants.chern_simons import MAX_REFINEMENT, _grid_sizes
    top = MAX_REFINEMENT
    assert _grid_sizes(top) == (4 * top, 800 * top, 4 * top)
    with pytest.raises(ValueError, match=f"1..{top}"):
        _grid_sizes(top + 1)
    with pytest.raises(ValueError):
        I.cs_su2_quadrature(top + 1)
    for r in (4, top):
        quad = {"provider": "quadrature", "params": {"refinement": r}}
        scene = I.BnrScene([_s3_component(eta=quad)])
        assert scene.components[0].refinement == r
    quad = {"provider": "quadrature", "params": {"refinement": top + 1}}
    with pytest.raises(ShapeError, match="eta.params.refinement"):
        I.BnrScene([_s3_component(eta=quad)])


def test_cs_certificate_catches_what_the_psi_gate_misses(monkeypatch):
    # a density off by 1e-9 moves cs(1) by 1e-9: far inside psi's 1e-6
    # integrality gate, far outside the midpoint closed form's 1e-12
    from abtqft.invariants import chern_simons as CS
    from abtqft.invariants.psi import PSI_TOLERANCE
    good = CS.cs_su2_quadrature(1)
    frame_density = CS._frame_density
    monkeypatch.setattr(CS, "_frame_density",
                        lambda *grid: frame_density(*grid) * (1.0 + 1e-9))
    assert abs(good * (1.0 + 1e-9) + 1.0) < PSI_TOLERANCE
    with pytest.raises(ArithmeticError, match="closed form"):
        CS.cs_su2_quadrature(1)


def test_cs_integrand_is_constant_density():
    # the pulled-back 3-form is a constant multiple of the volume form
    from abtqft.invariants.chern_simons import _Buffers, _frame_density
    rng = np.random.default_rng(17)
    chi = rng.uniform(0.2, math.pi - 0.2, 64)
    theta = rng.uniform(0.2, math.pi - 0.2, 64)
    phi = rng.uniform(0.0, 2 * math.pi, 64)
    dens = _frame_density(*(f(a) for a in (chi, theta, phi)
                            for f in (np.sin, np.cos)), _Buffers(64))
    assert np.std(dens) < 1e-9
    assert np.mean(dens) == pytest.approx(12.0, abs=1e-9)


def test_z_spin_quadrature_object_is_unit():
    value = wrap_unit(I.eta_integral("S3", "Lie-framing", refinement=1))
    assert circle_distance(value, 0.0) < 1e-3


# -- su pipeline --------------------------------------------------------------------

def test_su_trivial_disk():
    scene = I.SuScene([0.0] * 4, [scn.disk_bounding([0.0] * 4)])
    assert I.su_psi(scene).integer_value == 0


def test_su_icosa_vs_fliptorus():
    icosa = I.tangent_bounding("icosahedron", 0)
    flip = I.tangent_bounding("flip-torus", 0)
    scene = I.SuScene.from_primary(icosa, extra=[flip])
    result = I.su_psi(scene)
    assert result.integer_value == 1
    diffs = {c["bounding"]: c["difference"] for c in result.certificate}
    assert diffs[flip.label] == -2  # the sphere's worth of curvature


def test_su_lift_shift_covariance():
    scene = I.SuScene.from_primary(I.tangent_bounding("hex-sphere", 0))
    base = I.su_psi(scene)
    for k in (1, 2, 5):
        shifted = I.su_psi(scene.shifted(0, k))
        assert shifted.integer_value == base.integer_value - k
        assert shifted.residue == (base.residue - k) % 2
    # the torsor acts by exact integers only: no bool, no integral float
    for k in (True, 2.0):
        with pytest.raises(ValueError, match="lift shift"):
            scene.shifted(0, k)


def test_su_lift_mismatch_rejected():
    icosa = I.tangent_bounding("icosahedron", 0)
    scene = I.SuScene.from_primary(icosa)
    with pytest.raises(I.IncompatibleScene, match=re.escape(
            "boundings[0]: expected boundary length 5 and holonomy")):
        I.SuScene([a + 0.01 for a in scene.lifts], [icosa])
    with pytest.raises(I.IncompatibleScene, match=re.escape(
            "boundings[1]: expected boundary length 3 and holonomy 0.0, got "
            "boundary length 5")):
        I.SuScene([0.0] * 3, [scn.disk_bounding([0.0] * 3), icosa])


@pytest.mark.parametrize("build, fault", [
    (lambda s: s.shifted(-1, 1), "edge: expected an edge in 0..5, got -1"),
    (lambda s: s.shifted(6, 1), "edge: expected an edge in 0..5, got 6"),
    (lambda s: s.shifted(0, 10**400), "lift shift: expected an integer of "
     "at most 2**53 in size, got 100000000000000000...0000000000000000000"),
    (lambda s: scn.disk_bounding(s.lifts, 2**80), "extra_lift: expected an "
     "integer of at most 2**53 in size, got 1208925819614629174706176"),
], ids=["edge-negative", "edge-past-the-end", "shift-huge", "disk-lift-2**80"])
def test_su_integers_name_their_field(build, fault):
    # an edge index is never wrapped, and an integer a float cannot hold
    # exactly never silently loses the lift's fraction
    scene = I.SuScene.from_primary(I.tangent_bounding("hex-sphere", 0))
    with pytest.raises(ValueError, match=re.escape(fault)):
        build(scene)


def test_su_odd_difference_reported_not_fatal():
    icosa = I.tangent_bounding("icosahedron", 0)
    scene = I.SuScene.from_primary(icosa)
    odd_disk = scn.disk_bounding(scene.lifts, extra_lift=1,
                                 label="odd-disk")
    scene2 = I.SuScene(scene.lifts, [icosa, odd_disk])
    result = I.su_psi(scene2)
    flagged = [c for c in result.certificate if not c["in_hypothesis"]]
    assert any(c["bounding"] == "odd-disk" and c["difference"] % 2 == 1
               for c in flagged)


def test_su_odd_tangent_pair_is_fatal():
    icosa = I.tangent_bounding("icosahedron", 0)
    fake = I.SuBounding("tangent", icosa.k, icosa.holonomy,
                        icosa.curvature + 1.0, "fake")
    scene = I.SuScene.from_primary(icosa, extra=[fake])
    with pytest.raises(I.ParityCertificateError):
        I.su_psi(scene)


def test_su_gates_each_bounding():
    icosa = I.tangent_bounding("icosahedron", 0)
    off = I.SuBounding("tangent", icosa.k, icosa.holonomy,
                       icosa.curvature + 0.1, "off")
    scene = I.SuScene.from_primary(icosa, extra=[off])
    value = off.curvature - scene.sum_lifts()
    with pytest.raises(I.NonIntegralInvariant, match=re.escape(
            f"bounding off: Xi(g, h) = {value!r} is 1.000e-01 from the "
            "nearest integer (tolerance 1e-09)")):
        I.su_psi(scene)


def test_su_monoidality():
    # disjoint union of scenes: raws add (evaluate two scenes and a
    # joined one whose lift vector is the concatenation)
    s1 = I.SuScene.from_primary(I.tangent_bounding("icosahedron", 1))
    s2 = I.SuScene.from_primary(I.tangent_bounding("eq-torus", 2))
    r1, r2 = I.su_psi(s1), I.su_psi(s2)
    joint = I.SuBounding(
        "tangent", s1.boundings[0].k + s2.boundings[0].k,
        s1.boundings[0].holonomy + s2.boundings[0].holonomy,
        s1.boundings[0].curvature + s2.boundings[0].curvature,
        "disjoint-union")
    joined = I.SuScene(s1.lifts + s2.lifts, [joint])
    assert I.su_psi(joined).integer_value == (r1.integer_value
                                              + r2.integer_value)


def test_su_scene_json():
    scene = I.SuScene.from_json({"su": {
        "primary": {"mesh": "icosahedron", "puncture": 0},
        "boundings": [{"mesh": "pent-sphere", "puncture": 0}],
        "lift_shifts": [[0, 1]],
    }})
    result = I.su_psi(scene)
    assert result.integer_value == 0  # 1 shifted down by 1
    assert {c["difference"] for c in result.certificate} == {0}


def test_random_su_scenes_even():
    rng = random.Random(99)
    for _ in range(20):
        scene = I.random_su_scene(rng)
        result = I.su_psi(scene)
        assert all(c["difference"] % 2 == 0 for c in result.certificate)
