"""Fast paths checked against the slow paths they replaced.

Each oracle here is the old code, kept in the test: the dense boundary
matrix product, the rectangle grid with its own edge keying, the
per-vertex scan over all faces for corners and angle defects, the ring
walk started from that scan, the mod-2 invariant subtracted and gated by
hand, each invariant's integer rounded from its raw value under the
whole tolerance (the gate `InvariantResult` ran), the Smith form that
updated all four transforms on every elementary operation, the solve and
kernel read off those transforms, group elements as U_inv products,
squares and fills compared as two checked composite morphisms, the fiber
product taken whenever a fiber is built, isomorphisms decided by a
trivial kernel and cokernel, the edges at a puncture found by a scan
over all faces, and the winding quadrature evaluated one
whole chi slice at a time by the old allocating density, and the tangent
bundle over a checked dual whose lifts read a bare connection, a punctured
surface's curvature totalled by its connection over the complement chain,
and the surface layer's float bits as its numpy-array code wrote them to
`surface_bits.json` (regenerate with `surface_bits.py` only on purpose).
Morphisms
built without the well-definedness check, and cell complexes built
without the index, sign and boundary-of-boundary checks, are rebuilt
with them.
"""

import functools
import itertools
import json
import math
import os
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors

from abtqft import fgab, intmat, moncat, testing
from abtqft.analytic import circle_distance, nearest_integer, wrap_unit
from abtqft.cli import main
from abtqft.discrete import (CellComplex, ComplexError, LatticeConnection,
                             triangulated_grid)
from abtqft.discrete import connections, surfaces as S
from abtqft.discrete.complexes import build_triangle_surface
from abtqft.invariants import chern_simons as CS
from abtqft.invariants import (BnrScene, IncompatibleScene, InvariantResult,
                               NonIntegralInvariant, SuScene, psi, su_psi,
                               tangent_bounding)
from abtqft.invariants.psi import PSI_TOLERANCE, SU_TOLERANCE
from abtqft.invariants.scenes import SU_POOLS, disk_bounding, random_su_scene

from discrete_helpers import mesh_record
from hom_membership import fiber_hom_contains

TORI = [(kind, n, m)
        for kind in (S.flat_torus, S.equilateral_torus, S.flipped_torus)
        for n, m in ((12, 20), (16, 16), (20, 12))]

GRIDS = [triangulated_grid(nx, ny) for nx, ny in ((1, 1), (2, 3), (4, 2))]
BUILTINS = [build() for build in S.MESH_BUILDERS.values()]
DUALS = [S.tangent_connection(mesh).dual for mesh in BUILTINS]
COMPLEXES = GRIDS + BUILTINS + DUALS


# -- boundary operator -----------------------------------------------------

@st.composite
def chains(draw):
    cx = draw(st.sampled_from(COMPLEXES))
    k = draw(st.integers(1, cx.dim))
    coeffs = draw(st.lists(st.integers(-1000, 1000),
                           min_size=cx.n_cells[k], max_size=cx.n_cells[k]))
    return cx, k, np.array(coeffs, dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(chains())
def test_boundary_of_matches_dense_matrix(case):
    cx, k, vec = case
    fast = cx.boundary_of(k, vec)
    assert all(type(x) is int for x in fast)
    assert fast == (cx.boundary_matrix(k) @ vec).tolist()


def test_boundary_of_rejects_bad_chains():
    W = GRIDS[1]
    with pytest.raises(ComplexError):
        W.boundary_of(1, np.zeros(W.n_cells[1] + 1, dtype=np.int64))
    with pytest.raises(ComplexError):
        W.boundary_of(1, np.full(W.n_cells[1], 0.5))
    with pytest.raises(ComplexError):
        W.boundary_of(0, W.fundamental_chain(0))


# -- the boundary-of-boundary check in dimension 3 -----------------------------

def tetrahedron(tet_signs=(1, -1, 1, -1)):
    """The solid simplex on vertices 0..3; faces (abc) with a < b < c."""
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    eid = {e: i for i, e in enumerate(edges)}
    tris = [(a, b, c) for a in range(4) for b in range(a + 1, 4)
            for c in range(b + 1, 4)]
    fid = {t: i for i, t in enumerate(tris)}
    bnd1 = [[(a, -1), (b, 1)] for a, b in edges]
    bnd2 = [[(eid[(b, c)], 1), (eid[(a, c)], -1), (eid[(a, b)], 1)]
            for a, b, c in tris]
    opposite = [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]
    bnd3 = [[(fid[t], s) for t, s in zip(opposite, tet_signs)]]
    return CellComplex({0: 4, 1: 6, 2: 4, 3: 1}, {1: bnd1, 2: bnd2, 3: bnd3})


def test_dimension_three_complex_accepted():
    T = tetrahedron()
    assert T.dim == 3
    assert not (T.boundary_matrix(2) @ T.boundary_matrix(3)).any()
    assert not any(T.boundary_of(2, T.boundary_of(3, T.fundamental_chain(3))))


def test_dimension_three_boundary_of_boundary_rejected():
    with pytest.raises(ComplexError, match="dimension 3"):
        tetrahedron(tet_signs=(1, 1, 1, -1))


# -- the rectangle grid on the one simplicial builder -------------------------

def slow_triangulated_grid(nx, ny):
    nv = (nx + 1) * (ny + 1)

    def vid(i, j):
        return j * (nx + 1) + i

    edges = {}
    edge_bnd = []

    def eid(a, b):
        key = (min(a, b), max(a, b))
        if key not in edges:
            edges[key] = len(edge_bnd)
            edge_bnd.append([(key[0], -1), (key[1], 1)])
        return edges[key]

    def side(a, b):
        e = eid(a, b)
        lo, _ = min(a, b), max(a, b)
        return (e, 1 if a == lo else -1)

    faces = []
    for j in range(ny):
        for i in range(nx):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            faces.append([side(v00, v10), side(v10, v11), side(v11, v00)])
            faces.append([side(v00, v11), side(v11, v01), side(v01, v00)])
    coords = [[i, j] for j in range(ny + 1) for i in range(nx + 1)]
    return CellComplex({0: nv, 1: len(edge_bnd), 2: len(faces)},
                       {1: edge_bnd, 2: faces}, coords=coords,
                       name=f"grid{nx}x{ny}")


def test_grid_matches_own_edge_keying():
    for nx, ny in itertools.product(range(1, 7), repeat=2):
        fast, slow = triangulated_grid(nx, ny), slow_triangulated_grid(nx, ny)
        assert (fast.n_cells, fast.boundary, fast.coords,
                fast.edge_lengths) == (slow.n_cells, slow.boundary,
                                       slow.coords, slow.edge_lengths)
        assert fast.name == slow.name
        assert fast.edge_lengths is None


# -- corner index, angle defects and rings ---------------------------------------

def slot_vertex(cx, f, j):
    """The vertex at slot j of face f: the tail of side j as traversed."""
    e, sign = cx.boundary[2][f][j]
    tail, head = cx.edge_endpoints(e)
    return tail if sign == 1 else head


def slow_corners(ms, v):
    return [(f, j) for f in range(ms.complex.n_cells[2]) for j in range(3)
            if slot_vertex(ms.complex, f, j) == v]


def slow_angle_defect(ms, v):
    total = 0.0
    for f, j in slow_corners(ms, v):
        total += ms.corner_angles[f][j]
    return 2.0 * math.pi - total


def slot_index(boundary):
    """{(edge, sign): (face, slot)} by one scan over the faces."""
    return {side: (f, j) for f, sides in enumerate(boundary)
            for j, side in enumerate(sides)}


def walk_ring(boundary, slot_of, start):
    """From corner `start`, cross the side before each corner into the
    face on its other side, until back at `start`."""
    ring = []
    f, j = start
    while True:
        e, sign = boundary[f][(j - 1) % 3]
        ring.append((e, sign))
        f, j = slot_of[e, -sign]
        if (f, j) == start:
            return ring


def slow_ring(ms, v, slot_of):
    return walk_ring(ms.complex.boundary[2], slot_of, slow_corners(ms, v)[0])


@pytest.mark.parametrize(
    "mesh", BUILTINS + [kind(n, m) for kind, n, m in TORI],
    ids=lambda mesh: mesh.name)
def test_corner_index_matches_face_scan(mesh):
    bundle = S.tangent_connection(mesh)
    ms = bundle.surface
    slot_of = slot_index(mesh.boundary[2])
    for v in range(mesh.n_cells[0]):
        # the topology holds each vertex's corners as a tuple
        assert list(ms.corners_at[v]) == slow_corners(ms, v)
        # bit-identical: the summation order is unchanged
        assert ms.angle_defect(v) == slow_angle_defect(ms, v)
        assert bundle.defects[v] == slow_angle_defect(ms, v)
        assert list(bundle.rings[v]) == slow_ring(ms, v, slot_of)


def test_angle_defect_rejects_missing_vertex():
    ms = S.MetricSurface(S.icosahedron())
    for v in (-1, 12):
        with pytest.raises(ComplexError):
            ms.angle_defect(v)


def test_large_flat_torus_chern_number():
    mesh = S.flat_torus(64, 64)
    assert mesh.n_cells[0] == 4096
    assert S.tangent_connection(mesh).chern_number() == 0


# -- complexes valid by construction ---------------------------------------------

class EagerTangentBundle(S.TangentBundle):
    """The old construction: the dual through the checked constructor, and
    a bare connection built only to read the ring fractions, which the
    lifts and the punctured surfaces take."""

    def __init__(self, surface):
        self.surface = surface
        cx = surface.complex
        ne, nf, nv = cx.n_cells[1], cx.n_cells[2], cx.n_cells[0]
        slot_of = slot_index(cx.boundary[2])
        dual_edge_bnd = []
        turns = np.zeros(ne)
        for e in range(ne):
            f_plus, j_plus = slot_of[e, 1]
            f_minus, j_minus = slot_of[e, -1]
            a_plus = surface.edge_direction_in_chart(f_plus, j_plus)
            a_minus = surface.edge_direction_in_chart(f_minus, j_minus)
            turns[e] = wrap_unit((a_minus - a_plus) / S.TWO_PI)
            dual_edge_bnd.append([(f_plus, -1), (f_minus, 1)])
        self.rings = [walk_ring(cx.boundary[2], slot_of,
                                surface.corners_at[v][0]) for v in range(nv)]
        dual_face_bnd = [[(e, sign) for e, sign in ring] for ring in self.rings]
        self.dual = CellComplex({0: nf, 1: ne, 2: nv},
                                {1: dual_edge_bnd, 2: dual_face_bnd},
                                name="dual")
        self.defects = np.array([surface.angle_defect(v) for v in range(nv)])
        bare = LatticeConnection(self.dual, turns)
        self.fractions = [bare.face_fraction(v) for v in range(nv)]
        lifts = [nearest_integer(
            self.defects[v] / S.TWO_PI - self.fractions[v],
            S.LIFT_TOLERANCE, f"vertex {v}") for v in range(nv)]
        self.connection = LatticeConnection(self.dual, turns, lifts)


def eager_tangent_bundle(surface):
    return EagerTangentBundle(surface)


def _bundle_bits(bundle):
    conn = bundle.connection
    return ([float(t).hex() for t in conn.edge_turns],
            [float(d).hex() for d in bundle.defects],
            [int(n) for n in conn.face_lifts], mesh_record(bundle.dual))


def slow_ring_triangle_edges(surface, vertex):
    """Edges of the faces with a side ending at `vertex`, by a full scan."""
    edges = set()
    for sides in surface.boundary[2]:
        if any(idx == vertex for e, _ in sides
               for idx, _ in surface.boundary[1][e]):
            edges.update(e for e, _ in sides)
    return edges


def test_star_index_matches_the_face_scan():
    with open(os.path.join(os.path.dirname(__file__), "..", "samples",
                           "mesh_square.json")) as fh:
        from_file = CellComplex.from_json(json.load(fh), "mesh_square")
    meshes = [S.build_mesh(name) for name in S.MESH_BUILDERS]
    for cx in meshes + [from_file] + BUILTINS:
        for v in range(-1, cx.n_cells[0] + 1):
            assert S.ring_triangle_edges(cx, v) == slow_ring_triangle_edges(
                cx, v), (cx.name, v)


WORKLOAD_TORI = [kind(n, n)
                 for kind in (S.flat_torus, S.equilateral_torus,
                              S.flipped_torus)
                 for n in (12, 14, 16, 18, 20)]


def test_tangent_bundle_matches_the_eager_construction(monkeypatch):
    # as the geometry workload builds them: every (mesh, puncture) of the
    # su pools under seeded jitter, and the tori bare
    rng = random.Random("eager tangent bundle")
    cases = [(mesh, v, rng.random()) for pool in SU_POOLS for mesh, v in pool]
    cases += [(torus, rng.randrange(torus.n_cells[0]), None)
              for torus in WORKLOAD_TORI]
    for mesh, v, seed in cases:
        def bounding():
            jitter = None if seed is None else random.Random(seed)
            return tangent_bounding(mesh, v, jitter_rng=jitter)
        got = bounding()
        with monkeypatch.context() as m:
            m.setattr(S, "tangent_connection",
                      lambda cx: eager_tangent_bundle(S.MetricSurface(cx)))
            want = bounding()
        assert (repr(got.holonomy), repr(got.curvature)) == (
            repr(want.holonomy), repr(want.curvature)), (mesh, v)
        surface = mesh if seed is None else S.jittered_lengths(
            S.build_mesh(mesh), random.Random(seed),
            S.ring_triangle_edges(S.build_mesh(mesh), v))
        surface = S.MetricSurface(surface)
        want = _bundle_bits(eager_tangent_bundle(surface))
        # two bundles of one surface read the dual side of its topology; a
        # jittered builtin's surfaces share their builtin's, while another
        # surface of a bare torus derives its own
        first, second = S.TangentBundle(surface), S.TangentBundle(surface)
        other = S.TangentBundle(S.MetricSurface(surface.complex))
        assert first.dual is second.dual, (mesh, v)
        assert (other.dual is first.dual) == (seed is not None), (mesh, v)
        for bundle in (first, second, other):
            assert _bundle_bits(bundle) == want, (mesh, v)


def test_punctured_curvature_matches_the_connection():
    # the ring fractions the lifts took, summed with the lifts, against the
    # connection's own total over the complement chain: every builtin at
    # every puncture, each su pool entry under 20 seeded jitters as the
    # geometry workload draws them, and its tori at seeded punctures.  The
    # builtins' only nonzero lift (genus2's, -2) has a fraction of 1e-16,
    # so needle bipyramids, whose poles lift to 1 with fractions of
    # -0.14 to -0.32, tell apart the orders of summation
    rng = random.Random("punctured curvature")
    needles = [S._bipyramid_sphere(k, f"needle{k}", rim_length=rim)
               for k in (3, 4) for rim in (0.3, 0.5)]
    cases = [(mesh, range(mesh.n_cells[0]))
             for mesh in [S.build_mesh(name) for name in S.MESH_BUILDERS]
             + needles]
    for pool_mesh, v in sorted({entry for pool in SU_POOLS for entry in pool}):
        shared = S.build_mesh(pool_mesh)
        cases += [(S.jittered_lengths(shared, random.Random(seed),
                                      S.ring_triangle_edges(shared, v)), [v])
                  for seed in range(20)]
    cases += [(torus, rng.sample(range(torus.n_cells[0]), 3))
              for torus in WORKLOAD_TORI]
    for mesh, punctures in cases:
        bundle = S.tangent_connection(mesh)
        nv = bundle.dual.n_cells[2]
        for v in punctures:
            complement = [(f, 1) for f in range(nv) if f != v]
            want = connections.total_curvature(
                bundle.connection, bundle.dual.chain_vector(2, complement))
            got = bundle.punctured(v).total_curvature()
            assert got.hex() == want.hex(), (mesh.name, v)


class EagerMetricSurface(S.MetricSurface):
    """The old construction: each surface derives its edge ends, checks
    its faces' chaining and collects `corners_at` face by face, between
    the metric checks and the angles."""

    def __init__(self, complex):
        self.complex = complex
        self.lengths = complex.edge_lengths
        self.corner_angles, self.side_dirs = [], []
        self.corners_at = [[] for _ in range(complex.n_cells[0])]
        ends_of = [complex.edge_endpoints(e)
                   for e in range(complex.n_cells[1])]
        for f in range(complex.n_cells[2]):
            sides = complex.boundary[2][f]
            if len(sides) != 3:
                raise ComplexError(f"boundary.2[{f}]: expected the 3 sides of "
                                   f"a triangle, got {len(sides)} sides")
            ends = [ends_of[e][::sign] for e, sign in sides]
            for j in range(3):
                if ends[j - 1][1] != ends[j][0]:
                    raise ComplexError(
                        f"boundary.2[{f}]: expected sides that chain head to "
                        f"tail, got sides {(j - 1) % 3} and {j} that do not")
            L = [self.lengths[e] for e, _ in sides]
            for (e, _), length in zip(sides, L):
                if length <= 0.0:
                    raise S.DegenerateTriangle(
                        f"face {f}: edge {e} has non-positive length {length}")
            angles = []
            for j in range(3):
                a, b, c = L[j - 1], L[j], L[(j + 1) % 3]
                cosv = (a * a + b * b - c * c) / (2.0 * a * b)
                if not -1.0 < cosv < 1.0:
                    raise S.DegenerateTriangle(
                        f"face {f} violates the strict triangle inequality")
                angles.append(math.acos(cosv))
            dirs = [0.0, math.pi - angles[1]]
            dirs.append(dirs[1] + (math.pi - angles[2]))
            closure = dirs[2] + (math.pi - angles[0])
            if not abs(closure - S.TWO_PI) < 1e-9:
                raise ComplexError(f"face {f}: chart failed to close")
            self.corner_angles.append(angles)
            self.side_dirs.append(dirs)
            for j, (tail, _) in enumerate(ends):
                self.corners_at[tail].append((f, j))


def _square_mesh(**changes):
    with open(os.path.join(os.path.dirname(__file__), "..", "samples",
                           "mesh_square.json")) as fh:
        rec = json.load(fh)
    return CellComplex.from_json({**rec, **changes}, "mesh_square")


def test_metric_surface_matches_the_eager_construction():
    # each builtin, each su pool entry under 20 seeded jitters as the
    # geometry workload draws them, its tori and a mesh read from JSON
    meshes = [S.build_mesh(name) for name in S.MESH_BUILDERS]
    for pool_mesh, v in sorted({entry for pool in SU_POOLS for entry in pool}):
        shared = S.build_mesh(pool_mesh)
        meshes += [S.jittered_lengths(shared, random.Random(seed),
                                      S.ring_triangle_edges(shared, v))
                   for seed in range(20)]
    meshes += WORKLOAD_TORI
    meshes.append(_square_mesh(edge_lengths=[1.0, 1.0, 1.0, 1.0, 1.5]))
    for cx in meshes:
        got, want = S.MetricSurface(cx), EagerMetricSurface(cx)
        for values in ("corner_angles", "side_dirs"):
            assert [[x.hex() for x in face] for face in getattr(got, values)] \
                == [[x.hex() for x in face] for face in getattr(want, values)]
        assert list(map(list, got.corners_at)) == want.corners_at, cx.name


def test_derived_complexes_pass_the_public_check(monkeypatch):
    # the index, sign and boundary-of-boundary checks moved from jittered
    # copies, `build_triangle_surface` and tangent duals
    derived = []
    build = CellComplex._derived.__func__

    def recording(cls, *args, **kwargs):
        derived.append(build(cls, *args, **kwargs))
        return derived[-1]

    monkeypatch.setattr(CellComplex, "_derived", classmethod(recording))
    # builtins built afresh for this test, each deriving its one dual here
    monkeypatch.setattr(S, "_shared_mesh",
                        functools.cache(S._shared_mesh.__wrapped__))
    for mesh in S.MESH_BUILDERS.values():
        S.tangent_connection(mesh())
    for kind in (S.flat_torus, S.equilateral_torus, S.flipped_torus):
        for n in range(12, 21):
            S.tangent_connection(kind(n, n))
    for nx, ny in itertools.product(range(1, 5), repeat=2):
        triangulated_grid(nx, ny)
    rng = random.Random("derived complexes")
    for _ in range(50):
        random_su_scene(rng)
    names = [cx.name for cx in derived]
    touched = S._shared_mesh.cache_info().currsize
    assert touched == 8
    assert names.count("dual") == 8 + 27 + touched
    assert sum(name.endswith("-jittered") for name in names) == 100
    assert sum(name.startswith("grid") for name in names) == 16
    for cx in derived:
        again = CellComplex(cx.n_cells, cx.boundary, coords=cx.coords,
                            edge_lengths=cx.edge_lengths, name=cx.name)
        # a builtin's copies share its incidence as tuples, which the
        # public constructor reads back as lists
        assert (again.dim, again.n_cells, mesh_record(again)["boundary"]) == (
            cx.dim, cx.n_cells, mesh_record(cx)["boundary"])
        for reals in ("coords", "edge_lengths"):
            a, b = getattr(again, reals), getattr(cx, reals)
            assert a is b is None or repr(a) == repr(b)


@pytest.mark.parametrize("triangles, message", [
    ([(0, 1, 2), (0, 2, 3)], r"side \(2, 3\) leaves 0\.\.2"),
    ([(-1, 0, 1)], r"side \(-1, 0\) leaves 0\.\.2"),
    ([(0, 1, 1)], "loop edge"),
], ids=["past-the-end", "negative", "loop"])
def test_triangle_builder_refuses_bad_vertices(triangles, message):
    with pytest.raises(ComplexError, match=message):
        build_triangle_surface(3, triangles)


# -- float bits of the surface layer ----------------------------------------------

def test_surface_float_bits_match_the_fixture():
    # every defect, turn, lift, bounding holonomy and curvature and su raw
    # value keeps its float.hex from the numpy-array surface layer
    import surface_bits
    with open(os.path.join(os.path.dirname(__file__),
                           "surface_bits.json")) as fh:
        want = json.load(fh)
    got = surface_bits.surface_bits()
    assert sorted(got) == sorted(want)
    for group in want:
        assert got[group] == want[group], group


# -- the mod-2 invariant as Xi over the analytic square -------------------------

def slow_su_psi(scene):
    total_lift = scene.sum_lifts()
    scene_hol = wrap_unit(total_lift)
    raws = []
    for b in scene.boundings:
        if b.k != len(scene.lifts):
            raise IncompatibleScene(f"bounding {b.label} length")
        if circle_distance(b.holonomy, scene_hol) > SU_TOLERANCE:
            raise IncompatibleScene(f"bounding {b.label} lift mismatch")
        raws.append(b.curvature - total_lift)
    certificate = []
    primary = scene.boundings[0]
    base_int = round(raws[0])
    for b, r in zip(scene.boundings, raws):
        r_int = round(r)
        if abs(r - r_int) > SU_TOLERANCE:
            raise NonIntegralInvariant(f"bounding {b.label} non-integral")
        diff = r_int - base_int
        tangent_pair = b.kind == "tangent" and primary.kind == "tangent"
        entry = {"bounding": b.label, "integer": r_int, "difference": diff,
                 "kind": b.kind, "in_hypothesis": tangent_pair}
        if diff % 2 != 0 and not tangent_pair:
            entry["note"] = ("odd difference: bounding is outside the "
                             "tangent hypothesis")
        certificate.append(entry)
    return InvariantResult(raws[0], base_int, 2, certificate,
                           convention="su-lifts")


def _su_scenes():
    """Criterion 11's scenes with their lift shifts, then the disk and
    odd-disk scenes."""
    rng = random.Random(1111)
    scenes = []
    for _ in range(100):
        scene = random_su_scene(rng)
        k = rng.randint(1, 3)
        scenes += [scene, scene.shifted(rng.randrange(len(scene.lifts)), k)]
    icosa = tangent_bounding("icosahedron", 0)
    lifts = SuScene.from_primary(icosa).lifts
    scenes.append(SuScene([0.0] * 4, [disk_bounding([0.0] * 4)]))
    scenes.append(SuScene(lifts, [icosa, disk_bounding(lifts, extra_lift=1)]))
    return scenes


def test_su_psi_matches_hand_subtraction():
    for scene in _su_scenes():
        fast, slow = su_psi(scene), slow_su_psi(scene)
        assert fast.raw == slow.raw  # bit-identical
        assert fast.integer_value == slow.integer_value
        assert fast.residue == slow.residue
        assert fast.certificate == slow.certificate


def _sample(name):
    path = os.path.join(os.path.dirname(__file__), "..", "samples", name)
    with open(path) as fh:
        return json.load(fh)


def test_result_integer_is_its_raw_rounded():
    # the pipelines gate each Xi on its own and hand `InvariantResult` the
    # integer they proved; rounding the raw sum under the whole tolerance
    # (n components at PSI_TOLERANCE each, one primary at SU_TOLERANCE)
    # must give that integer back
    s3 = _sample("scene_s3.json")
    q1 = {**s3, "eta": {"provider": "quadrature", "key": "Lie-framing",
                        "params": {"refinement": 1}}}
    empty = {"m3": {"key": "empty"}, "eta": {"key": "empty"},
             "w4": {"key": "empty"}, "nabla": {"key": "empty"}}
    for scene in (BnrScene.from_json(s3),
                  BnrScene.from_json(_sample("scene_s3_k3.json")),
                  BnrScene.s3_lie(), BnrScene.empty(),
                  BnrScene.s3_lie(glue=["K3"]),
                  BnrScene.from_json({"union": [s3, empty]}),
                  BnrScene.from_json(q1),
                  BnrScene.from_json({"union": [q1, q1]})):
        result = psi(scene, certify=True)
        tolerance = len(scene.resolve()) * PSI_TOLERANCE
        assert nearest_integer(result.raw, tolerance, "psi raw") == (
            result.integer_value)
    for scene in [SuScene.from_json(_sample("scene_su.json"))] + _su_scenes():
        result = su_psi(scene)
        assert nearest_integer(result.raw, SU_TOLERANCE, "su raw") == (
            result.integer_value)


# -- Smith form: the lazy transforms against the eager elimination ------------

def eager_smith(M):
    """The Smith form with all four transforms updated on every operation
    (the old `intmat.smith`); returns (U, D, V, U_inv, V_inv)."""
    M = intmat.as_int_matrix(M)
    m, n = M.shape
    A = M.copy()
    U, U_inv = intmat.identity(m), intmat.identity(m)
    V, V_inv = intmat.identity(n), intmat.identity(n)

    def row_swap(i, j):
        A[[i, j]] = A[[j, i]]
        U[[i, j]] = U[[j, i]]
        U_inv[:, [i, j]] = U_inv[:, [j, i]]

    def col_swap(i, j):
        A[:, [i, j]] = A[:, [j, i]]
        V[:, [i, j]] = V[:, [j, i]]
        V_inv[[i, j]] = V_inv[[j, i]]

    def row_addmul(i, j, q):
        A[i, :] += q * A[j, :]
        U[i, :] += q * U[j, :]
        U_inv[:, j] -= q * U_inv[:, i]

    def col_addmul(i, j, q):
        A[:, i] += q * A[:, j]
        V[:, i] += q * V[:, j]
        V_inv[j, :] -= q * V_inv[i, :]

    for s in range(min(m, n)):
        while True:
            pivot, best = None, None
            for i in range(s, m):
                for j in range(s, n):
                    a = A[i, j]
                    if a != 0 and (best is None or abs(a) < best):
                        best, pivot = abs(a), (i, j)
            if pivot is None:
                break
            i, j = pivot
            if i != s:
                row_swap(s, i)
            if j != s:
                col_swap(s, j)
            if A[s, s] < 0:
                A[s, :] = -A[s, :]
                U[s, :] = -U[s, :]
                U_inv[:, s] = -U_inv[:, s]
            dirty = False
            for i in range(s + 1, m):
                if A[i, s] != 0:
                    row_addmul(i, s, -(A[i, s] // A[s, s]))
                    dirty = dirty or A[i, s] != 0
            for j in range(s + 1, n):
                if A[s, j] != 0:
                    col_addmul(j, s, -(A[s, j] // A[s, s]))
                    dirty = dirty or A[s, j] != 0
            if dirty:
                continue
            offender = next((i for i in range(s + 1, m)
                             for j in range(s + 1, n)
                             if A[i, j] % A[s, s] != 0), None)
            if offender is None:
                break
            row_addmul(s, offender, 1)
    return U, A, V, U_inv, V_inv


def eager_kernel_basis(V, diag):
    """The old `kernel_basis` body on an eager V."""
    n = V.shape[0]
    free = [i for i in range(n) if i >= len(diag) or diag[i] == 0]
    B = V[:, free] if free else np.zeros((n, 0), dtype=object)
    for j in range(B.shape[1]):
        lead = next((v for v in B[:, j] if v != 0), None)
        if lead is not None and lead < 0:
            B[:, j] = -B[:, j]
    return B


def eager_solve_linear(U, V, diag, b):
    """The old `solve_linear` body on an eager U and V."""
    m, n = U.shape[0], V.shape[0]
    b = np.array([intmat.as_int(v, "rhs") for v in b], dtype=object)
    if b.shape != (m,):
        raise ValueError("rhs has wrong length")
    c = U @ b
    w = np.zeros(n, dtype=object)
    for i in range(m):
        d = diag[i] if i < len(diag) else 0
        ci = c[i]
        if d == 0:
            if ci != 0:
                return None
        else:
            if ci % d != 0:
                return None
            if i < n:
                w[i] = ci // d
    return V @ w


class EagerDecomposition:
    def __init__(self, M):
        self.M = intmat.as_int_matrix(M, np.shape(M))
        self.U, self.D, self.V, self.U_inv, self.V_inv = eager_smith(self.M)
        self.diag = [self.D[i, i] for i in range(min(self.D.shape))]


def _smith_cases(family, count, seed):
    rng = random.Random(f"smith/{family}/{seed}")
    cases = []
    for _ in range(count):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        if family == "empty":
            m, n = rng.choice([(0, n), (m, 0), (0, 0)])
        elif family == "tall":
            m = n + rng.randint(1, 4)
        elif family == "wide":
            n = m + rng.randint(1, 4)
        bound = rng.choice([1, 3, 9, 40])
        M = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
        if family == "zero":
            M = [[0] * n for _ in range(m)]
        elif family == "rank-deficient" and m >= 2:
            for r in range(rng.randint(1, m - 1)):
                a, b = rng.randrange(m), rng.randrange(m)
                k = rng.randint(-3, 3)
                M[r] = [x + k * y for x, y in zip(M[a], M[b])]
        cases.append(np.array(M, dtype=object).reshape(m, n))
    return cases


SMITH_FAMILIES = {"empty": 30, "zero": 20, "rank-deficient": 70, "tall": 60,
                  "wide": 60, "square": 80}


def _same(lazy, eager):
    return lazy.shape == eager.shape and lazy.tolist() == eager.tolist()


@pytest.fixture
def empty_memo(monkeypatch):
    """`smith` starts from an empty memo, and the shared one is restored."""
    monkeypatch.setattr(intmat, "_SMITH_CACHE", {})


@pytest.fixture
def eliminations(monkeypatch):
    """The matrices `smith` eliminates, one entry per elimination."""
    eliminate, seen = intmat._eliminate, []

    def counting(shape, rows):
        seen.append([list(r) for r in rows])
        return eliminate(shape, rows)

    monkeypatch.setattr(intmat, "_eliminate", counting)
    return seen


@pytest.mark.parametrize("family", SMITH_FAMILIES)
def test_lazy_smith_matches_eager_transforms(family, empty_memo):
    for M in _smith_cases(family, SMITH_FAMILIES[family], 0):
        lazy, eager = intmat.smith(M), EagerDecomposition(M)
        # equal inputs share one decomposition, whatever their container
        assert intmat.smith(M) is lazy
        assert intmat.smith(M.astype(np.int64)) is lazy
        if M.shape[0]:          # an empty list has no shape to share
            assert intmat.smith(M.tolist()) is lazy
        for name in ("U", "V", "U_inv", "V_inv", "D"):
            assert _same(getattr(lazy, name), getattr(eager, name)), (name, M)
        assert lazy.diag == eager.diag
        assert all(type(v) is int for v in lazy.U.flat)
        assert _same(intmat.kernel_basis(M),
                     eager_kernel_basis(eager.V, eager.diag))
        m, n = M.shape
        rng = random.Random(repr(M.tolist()))
        x = np.array([rng.randint(-4, 4) for _ in range(n)], dtype=object)
        for b in (list(M @ x), [rng.randint(-9, 9) for _ in range(m)]):
            fast = intmat.solve_linear(M, b)
            slow = eager_solve_linear(eager.U, eager.V, eager.diag, b)
            assert (fast is None) == (slow is None)
            assert fast is None or fast.tolist() == slow.tolist()
        assert fast is None or list(M @ fast) == b


@pytest.mark.parametrize("family", SMITH_FAMILIES)
def test_apply_log_matches_transforms(family):
    # the lazy transforms are themselves read off the log, so the log is
    # checked against the transforms that the elimination updated
    for M in _smith_cases(family, SMITH_FAMILIES[family], 1):
        s, eager = intmat.smith(M), EagerDecomposition(M)
        m, n = M.shape
        rng = random.Random(repr(M.tolist()))
        for _ in range(3):
            b = [rng.randint(-50, 50) for _ in range(m)]
            x = [rng.randint(-50, 50) for _ in range(n)]
            assert intmat.apply_log(s._row_ops, b) == list(eager.U @ b)
            assert intmat.apply_log(s._row_ops, b, inverse=True) == \
                list(eager.U_inv @ b)
            assert intmat.apply_log(s._col_ops, x, transpose=True) == \
                list(eager.V @ x)
            assert intmat.apply_log(s._col_ops, x, transpose=True,
                                    inverse=True) == list(eager.V_inv @ x)


def test_solve_and_kernel_build_no_transform(monkeypatch, empty_memo):
    smith, made = intmat.smith, []

    def recording_smith(M):
        made.append(smith(M))
        return made[-1]

    monkeypatch.setattr(intmat, "smith", recording_smith)
    M = [[2, 4, 4, 1], [-6, 6, 12, 0], [10, -4, -16, 2]]
    s = intmat.smith(M)
    assert intmat.kernel_basis(M).shape == (4, 1)
    xs = [intmat.solve_linear(M, b, decomposition=s)
          for b in ([1, 0, 0], [11, 12, -8], [0, 0, 0])]
    assert xs[1] is not None and xs[2] is not None
    assert len(made) == 2 and made[0] is made[1]
    assert "U" not in s.__dict__ and "V" not in s.__dict__


# -- Smith elimination: inlined updates against the closure-based loop ------

def slow_eliminate(shape, rows):
    """Row/column eliminations in place on a list copy A of the int rows,
    each logged for the transforms.  The pivot is a minimal nonzero
    |entry| of the trailing block, first in row-major order; the inner
    divisibility pass guarantees the divisor chain d1 | d2 | ..."""
    m, n = shape
    A = [list(r) for r in rows]
    row_ops, col_ops = [], []

    # the leading s x s block is diagonal and the rest of its rows and
    # columns zero, so every operation at step s reads columns/rows >= s
    def row_addmul(i, j, q, s):
        # row_i += q * row_j
        ri, rj = A[i], A[j]
        for c in range(s, n):
            ri[c] += q * rj[c]
        row_ops.append(("add", i, j, q))

    def col_addmul(i, j, q, s):
        # col_i += q * col_j
        for r in range(s, m):
            row = A[r]
            row[i] += q * row[j]
        col_ops.append(("add", i, j, q))

    for s in range(min(m, n)):
        while True:
            # locate a minimal nonzero entry in the trailing block
            pivot = None
            best = None
            for i in range(s, m):
                row = A[i]
                for j in range(s, n):
                    a = row[j]
                    if a and (best is None or abs(a) < best):
                        best = abs(a)
                        pivot = (i, j)
                if best == 1:
                    break
            if pivot is None:
                break
            i, j = pivot
            if i != s:
                A[s], A[i] = A[i], A[s]
                row_ops.append(("swap", s, i))
            if j != s:
                for r in range(s, m):
                    row = A[r]
                    row[s], row[j] = row[j], row[s]
                col_ops.append(("swap", s, j))
            if A[s][s] < 0:
                A[s] = [-a for a in A[s]]
                row_ops.append(("neg", s))

            p = A[s][s]
            dirty = False
            for i in range(s + 1, m):
                if A[i][s] != 0:
                    row_addmul(i, s, -(A[i][s] // p), s)
                    if A[i][s] != 0:
                        dirty = True
            top = A[s]
            for j in range(s + 1, n):
                if top[j] != 0:
                    col_addmul(j, s, -(top[j] // p), s)
                    if top[j] != 0:
                        dirty = True
            if dirty:
                continue

            # pivot clears its row and column; force it to divide the rest
            offender = next((i for i in range(s + 1, m)
                             if any(a % p for a in A[i][s + 1:])), None)
            if offender is None:
                break
            row_addmul(s, offender, 1, s)

    dg = [A[i][i] for i in range(min(m, n))]
    if not (all(v == 0 for i, row in enumerate(A)
                for j, v in enumerate(row) if i != j)
            and all(d >= 0 for d in dg)
            and all(dg[i + 1] % dg[i] == 0
                    for i in range(len(dg) - 1) if dg[i] != 0)):
        raise ArithmeticError(f"smith: result is not in Smith normal form "
                              f"(diagonal {dg})")
    return intmat.SmithDecomposition(shape, rows, dg, row_ops, col_ops)


def _tiny_cases(seed):
    """Matrices of 1..4 rows and 1..7 columns with entries drawn like the
    benchmark's groups: multiples of its cyclic factors, half of them
    scrambled by unimodular row and column operations."""
    rng = random.Random(f"smith/tiny/{seed}")
    cases = []
    for m, n in itertools.product(range(1, 5), range(1, 8)):
        for _ in range(8):
            M = [[rng.choice(testing._FACTORS) * rng.randint(-2, 2)
                  for _ in range(n)] for _ in range(m)]
            if rng.random() < 0.5:
                for _ in range(2 * (m + n)):
                    q = rng.randint(-2, 2)
                    if m > 1 and rng.random() < 0.5:    # row_i += q row_j
                        i, j = rng.sample(range(m), 2)
                        M[i] = [a + q * b for a, b in zip(M[i], M[j])]
                    elif n > 1:                         # col_i += q col_j
                        i, j = rng.sample(range(n), 2)
                        for r in M:
                            r[i] += q * r[j]
            cases.append(M)
    return cases


def _perfbench(name):
    """The benchmark module perfbench/`name`.py, loaded by its path."""
    import importlib.util
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                        f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _same_elimination(rows, n):
    shape = (len(rows), n)
    fast, slow = intmat._eliminate(shape, rows), slow_eliminate(shape, rows)
    assert (fast.diag, fast._row_ops, fast._col_ops) == (
        slow.diag, slow._row_ops, slow._col_ops), rows


@pytest.mark.parametrize("family", SMITH_FAMILIES)
def test_elimination_log_matches_closure_loop(family):
    for seed in (0, 1):
        for M in _smith_cases(family, SMITH_FAMILIES[family], seed):
            _same_elimination(*intmat.int_rows(M, M.shape))


def test_elimination_log_matches_closure_loop_on_tiny_shapes():
    for M in _tiny_cases(0):
        _same_elimination(*intmat.int_rows(M))


def test_elimination_log_matches_closure_loop_on_benchmark_ops(empty_memo,
                                                               eliminations):
    gen, algebra = _perfbench("gen"), _perfbench("algebra")
    for op in gen.algebra(1):
        if op["kind"] != "large":
            algebra.EXECUTE[op["kind"]](op)
    seen = list(eliminations)       # the checks below eliminate too
    assert len(seen) > 1000
    for M in seen:
        # a matrix without rows eliminates to nothing, whatever its width
        _same_elimination(tuple(map(tuple, M)), len(M[0]) if M else 0)


# -- the Smith memo: one shared, read-only decomposition per input -------------

def test_large_op_eliminates_once(empty_memo, eliminations):
    rng = random.Random("smith/48")
    M = [[rng.randint(-9, 9) for _ in range(48)] for _ in range(48)]
    A = np.array(M, dtype=object)
    s = intmat.smith(M)
    assert intmat.kernel_basis(M).shape == (48, 48 - sum(map(bool, s.diag)))
    for _ in range(3):
        b = list(A @ [rng.randint(-5, 5) for _ in range(48)])
        assert list(A @ intmat.solve_linear(M, b)) == b
    assert eliminations == [M]


def test_smith_memo_keys_empty_shapes_apart(empty_memo):
    made = [intmat.smith(np.zeros(shape, dtype=np.int64))
            for shape in ((0, 3), (3, 0), (0, 0))]
    assert [s.shape for s in made] == [(0, 3), (3, 0), (0, 0)]
    assert len(intmat._SMITH_CACHE) == 3


def test_smith_memo_is_bounded_least_recently_used(empty_memo, eliminations):
    size = intmat.SMITH_CACHE_SIZE
    for k in range(size + 1):
        intmat.smith([[k]])
    intmat.smith([[size]])
    assert len(eliminations) == size + 1
    intmat.smith([[0]])                 # the oldest input was dropped
    assert len(eliminations) == size + 2
    assert len(intmat._SMITH_CACHE) == size
    intmat.smith([[2]])                 # a reused input moves to the back,
    intmat.smith([[size + 1]])          # so [[3]] goes, not [[2]]
    intmat.smith([[2]])
    assert len(eliminations) == size + 3


def test_shared_smith_is_read_only(empty_memo):
    s = intmat.smith([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    for name in ("D", "U", "V", "U_inv", "V_inv"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(s, name)[0, 0] = 7
    s.diag[0] = 7                       # a copy
    assert s.diag == [2, 6, 12]


def test_smith_memo_does_not_see_later_edits(empty_memo):
    rows = [[2, 4], [6, 8]]
    array = np.array(rows, dtype=object)
    s = intmat.smith(rows)
    assert intmat.smith(array) is s
    rows[0][0] = array[0, 0] = 3
    assert s.rows == ((2, 4), (6, 8)) and s.diag == [2, 4]
    t = intmat.smith(rows)
    assert t is not s and intmat.smith(array) is t
    assert t.diag == EagerDecomposition(rows).diag == [1, 0]


@pytest.mark.parametrize("bad, message", [
    ([[1, True]], r"^entry\[0\]\[1\]: "),
    ([[1.0]], r"^entry\[0\]\[0\]: "),
    ([[1, 2], [3]], "2d matrix"),
    (((1.5, 2), (3, 4)), r"^entry\[0\]\[0\]: "),    # tuples are gated too
])
def test_smith_memo_never_keeps_bad_input(bad, message, empty_memo):
    with pytest.raises(ValueError, match=message):
        intmat.smith(bad)
    assert intmat._SMITH_CACHE == {}


def _refused(call):
    """The message of the ValueError `call()` raises."""
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def _group_smith(tmp_path, capsys, text):
    """`abtqft group smith` on a file holding `text`: exit code, stderr."""
    path = tmp_path / "matrix.json"
    path.write_text(text)
    code = main(["group", "smith", str(path)])
    return f"exit {code}: {capsys.readouterr().err}".replace(str(path), "FILE")


def _endomorphism_of_z(matrix):
    Z = fgab.free_group(1)
    return fgab.GroupMorphism(Z, Z, matrix)


# the group layer reaches the private `intmat._smith` from gated rows only:
# each public entry gates its input as before, and numpy ints still pass
GATE_ROWS = {
    "smith, bool": (
        lambda *_: _refused(lambda: intmat.smith(((True, 2),), 2)),
        "entry[0][0]: expected exact integer, got True"),
    "smith, float": (
        lambda *_: _refused(lambda: intmat.smith(((1.0,),), 1)),
        "entry[0][0]: expected exact integer, got 1.0"),
    "group, bool relation": (
        lambda *_: _refused(lambda: fgab.FgAbGroup(1, [[True]])),
        "relations[0][0]: expected exact integer, got True"),
    "morphism, float": (
        lambda *_: _refused(lambda: _endomorphism_of_z([[2.0]])),
        "matrix[0][0]: expected exact integer, got 2.0"),
    "cli group smith, JSON true": (
        lambda tmp_path, capsys: _group_smith(tmp_path, capsys,
                                              "[[true, 2], [3, 4]]"),
        "exit 2: input error: FILE: $[0][0]: expected an integer, "
        "got True\n"),
    "kernel and solve, numpy ints": (
        lambda *_: repr((
            intmat.kernel_basis(np.array([[2, 4]], dtype=np.int64)).tolist(),
            intmat.solve_linear(np.array([[2, 4]], dtype=np.int64),
                                [np.int64(6)]).tolist())),
        "([[2], [-1]], [3, 0])"),
}


@pytest.mark.parametrize("row", GATE_ROWS)
def test_public_entries_keep_their_gate(row, tmp_path, capsys):
    run, outcome = GATE_ROWS[row]
    assert run(tmp_path, capsys) == outcome


def test_lazy_smith_builds_each_transform_once():
    s = intmat.smith([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    assert s.U is s.U and s.V_inv is s.V_inv
    assert s.diag == [2, 6, 12]


@pytest.mark.parametrize("family", ["square", "rank-deficient", "wide"])
def test_lazy_smith_diagonal_matches_sympy(family):
    for M in _smith_cases(family, 8, 1):
        ref = [int(v) for v in invariant_factors(Matrix(M.tolist()),
                                                 domain=ZZ)]
        diag = intmat.smith(M).diag
        assert diag == ref + [0] * (len(diag) - len(ref))


def test_elements_match_u_inv_products():
    rng = random.Random("elements")
    groups = [fgab.FgAbGroup(0)]
    while len(groups) < 30:
        n = rng.randint(1, 4)
        G = fgab.FgAbGroup(n, [[rng.randint(-6, 6) for _ in range(n)]
                               for _ in range(n + rng.randint(0, 2))])
        if G.is_finite and 2 <= G.order() <= 400:
            groups.append(G)
    for G in groups:
        U_inv = G._snf.U_inv
        slow = [tuple(U_inv @ np.array(y, dtype=object)) for y in
                itertools.product(*[range(m) for m in G._mods])]
        assert [x.coords for x in G.elements()] == slow


def as_array(f):
    """The int rows of the morphism f as a new object array."""
    return np.array(f.matrix, dtype=object).reshape(f.target.n_generators,
                                                    f.source.n_generators)


def test_morphism_images_match_matmul():
    # the old image: one object-dtype matmul per element
    rng = random.Random("morphisms")
    groups = [fgab.FgAbGroup(0), fgab.free_group(2),
              fgab.FgAbGroup(3, [[2, 4, 0], [0, 6, 3]])]
    groups += [testing.random_finite_group(rng) for _ in range(8)]
    for G in groups:
        for H in groups:
            f = testing.random_morphism(rng, G, H)
            for _ in range(4):
                coords = [rng.randint(-10**20, 10**20)
                          for _ in range(G.n_generators)]
                slow = as_array(f) @ np.array(coords, dtype=object)
                image = f(G.element(coords))
                assert image.parent is H
                assert image.coords == tuple(slow)


# -- squares and fills: lattice columns against checked composites ----------

def eager_equal(f, g):
    """The old morphism equality: generator images agree in the target."""
    if f.source is not g.source or f.target is not g.target:
        return False
    diff = as_array(f) - as_array(g)
    return all(all(k == 0 for k in f.target.canonical_key(diff[:, j]))
               for j in range(f.source.n_generators))


def eager_commutes(phi_H, phi_G, f_ob, f_mor):
    return eager_equal(phi_H.then(f_ob), f_mor.then(phi_G))


def eager_splits(square, lam):
    return (eager_equal(square.f_mor, square.phi_H.then(lam))
            and eager_equal(square.f_ob, lam.then(square.phi_G)))


def _perturbed(rng, f):
    """f with one matrix entry moved, if such a copy is well defined."""
    for _ in range(20):
        M = as_array(f)
        M[rng.randrange(M.shape[0]), rng.randrange(M.shape[1])] += \
            rng.choice((-1, 1, 2, 3))
        try:
            return fgab.GroupMorphism(f.source, f.target, M)
        except fgab.IllDefinedMorphism:
            pass
    return f


def test_square_and_fill_verdicts_match_composites():
    rng = random.Random("squares")
    seen = set()
    for _ in range(60):
        square, fill = testing.random_square(rng)
        phi_H, phi_G, f_mor = square.phi_H, square.phi_G, square.f_mor
        for f_ob in (square.f_ob, _perturbed(rng, square.f_ob)):
            commutes = eager_commutes(phi_H, phi_G, f_ob, f_mor)
            seen.add(("square", commutes))
            if not commutes:
                with pytest.raises(fgab.IllDefinedMorphism,
                                   match="^square does not commute$"):
                    moncat.CommSquare(phi_H, phi_G, f_ob, f_mor)
                continue
            built = moncat.CommSquare(phi_H, phi_G, f_ob, f_mor)
            for lam in (fill.lam, _perturbed(rng, fill.lam)):
                splits = eager_splits(built, lam)
                seen.add(("fill", splits))
                try:
                    moncat.DiagonalFill(built, lam)
                except moncat.TriangleMismatch:
                    assert not splits
                else:
                    assert splits
    assert seen == {(kind, verdict) for kind in ("square", "fill")
                    for verdict in (True, False)}


def test_square_and_fill_build_no_morphism(monkeypatch):
    rng = random.Random("no composites")
    cases = [testing.random_square(rng) for _ in range(10)]
    built = []
    init = fgab.GroupMorphism.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(fgab.GroupMorphism, "__init__", counting_init)
    for square, fill in cases:
        again = moncat.CommSquare(square.phi_H, square.phi_G, square.f_ob,
                                  square.f_mor)
        moncat.DiagonalFill(again, fill.lam)
    assert built == []


def test_fiber_queries_take_no_fiber_product(monkeypatch):
    rng = random.Random("lazy fiber")
    taken = []
    kernel = fgab.kernel

    def recording_kernel(f):
        taken.append(f)
        return kernel(f)

    monkeypatch.setattr(fgab, "kernel", recording_kernel)
    monkeypatch.setattr(moncat, "kernel", recording_kernel)
    for _ in range(20):
        square, fill = testing.random_square(rng)
        fiber = moncat.HofibCat(square)
        pb = fiber.pullback
        H_ob, H_mor = square.phi_H.target, square.phi_H.source
        # (lambda(h), h) is an object: phi_G . lambda = f_ob
        objects = [fiber.unit()] + [(fill.lam(h), h) for h in
                                    itertools.islice(H_ob.elements(), 4)]
        xi = moncat.XiFunctor(fiber, fill)
        for p, q in itertools.product(objects, repeat=2):
            fiber.hom(p, q)
            fiber_hom_contains(fiber, p, q, H_mor.generator(0))
            xi.apply_object(q)
        assert fiber.stacked.target is pb.direct_sum
        assert not any(f is pb.difference for f in taken)
        # reading the object group takes it once; pairs round-trip as before
        P = fiber.object_group
        assert P is pb.group
        assert sum(f is pb.difference for f in taken) == 1
        assert fiber.stacked.target is pb.incl.target
        for p in itertools.islice(P.elements(), 10):
            x, y = pb.pair(p)
            assert fiber.is_object(x, y)
            assert pb.stack(x, y).key() == pb.incl(p).key()


# -- derived morphisms, lazy normal forms and the Xi criterion ----------------

def eager_is_isomorphism(f):
    """The old decision: a trivial kernel, taken with its checked
    inclusion, and a trivial cokernel."""
    K, incl = fgab.kernel(f)
    fgab.GroupMorphism(K, f.source, incl.matrix)
    return K.is_trivial and fgab.cokernel(f).is_trivial


def test_derived_morphisms_pass_the_public_check(monkeypatch):
    # the well-definedness checks moved from the kernel and image
    # inclusions, a pullback's difference and a fiber's stacked map
    derived = []
    build = fgab.GroupMorphism._derived.__func__

    def recording(cls, source, target, matrix):
        derived.append(build(cls, source, target, matrix))
        return derived[-1]

    monkeypatch.setattr(fgab.GroupMorphism, "_derived", classmethod(recording))
    rng = random.Random("derived morphisms")
    for _ in range(60):
        square, fill = testing.random_square(rng)
        fiber = moncat.HofibCat(square)
        pb = fiber.pullback
        xi = moncat.XiFunctor(fiber, fill)
        unit = fiber.unit()
        hs = fiber.hom(unit, unit)
        expected = [pb.difference, fiber.stacked, pb.incl, xi.kernel_incl,
                    hs.kernel_incl]
        maps = (square.phi_H, square.phi_G, square.f_ob, square.f_mor,
                fill.lam)
        for f in maps:
            expected += [fgab.kernel(f)[1], fgab.image(f)[1]]
        assert all(any(f is g for g in derived) for f in expected)
        for f in derived:
            again = fgab.GroupMorphism(f.source, f.target, f.matrix)
            assert again.matrix == f.matrix
        derived.clear()


def _presentation(rng):
    """A random group: free parts, 0 generators and relation matrices
    with fewer or more rows than generators all occur."""
    torsion = [rng.choice((1, 2, 3, 4, 6, 9)) for _ in range(rng.randint(0, 2))]
    G = fgab.direct_sum(fgab.product_group(torsion),
                        fgab.free_group(rng.randint(0, 2)))
    if G.n_generators and rng.random() < 0.5:
        return testing.scrambled_presentation(G, rng)
    return G


def test_is_isomorphism_matches_kernel_and_cokernel():
    rng = random.Random("isomorphisms")
    seen, n_iso, n_cases = set(), 0, 0
    while n_cases < 2100:
        G = _presentation(rng)
        for H in (_presentation(rng), testing.scrambled_presentation(G, rng)
                  if G.n_generators else G):
            for f in (testing.random_morphism(rng, G, H),
                      testing.random_morphism(rng, H, G)):
                iso = fgab.is_isomorphism(f)
                assert iso == eager_is_isomorphism(f), f.matrix
                seen.add((fgab.kernel(f)[0].is_trivial,
                          fgab.cokernel(f).is_trivial))
                n_iso += iso
                n_cases += 1
        if G._mods == H._mods:
            f = testing.random_automorphism(rng, G, H)
            assert fgab.is_isomorphism(f) and eager_is_isomorphism(f)
            n_iso += 1
            n_cases += 1
    # onto but not injective, and the reverse, both occur
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}
    assert n_iso >= 300


def test_queries_eliminate_only_what_they_read(monkeypatch, empty_memo,
                                               eliminations):
    rng = random.Random("lazy normal forms")
    taken = []
    kernel = fgab.kernel

    def recording_kernel(f):
        taken.append(f)
        return kernel(f)

    monkeypatch.setattr(fgab, "kernel", recording_kernel)
    monkeypatch.setattr(moncat, "kernel", recording_kernel)
    n_empty = 0
    for _ in range(30):
        square, fill = testing.random_square(rng)
        H_mor, H_ob = square.phi_H.source, square.phi_H.target
        G_mor, G_ob = square.phi_G.source, square.phi_G.target
        for G in (H_mor, H_ob, G_mor, G_ob):
            G.free_rank         # the input groups' own eliminations
        before = len(eliminations)
        moncat.xi_is_equivalence(square, fill)
        assert len(eliminations) - before <= 1

        fiber = moncat.HofibCat(square)
        h = H_ob.generator(0)
        for q in ((fill.lam(h), h), (G_mor.zero(), h)):
            if fiber.is_object(*q):
                fiber.hom(fiber.unit(), q).element_keys()
        assert "_snf" not in fiber.pullback.direct_sum.__dict__

        for b in itertools.islice(G_ob.elements(), 6):
            del taken[:]
            hs = moncat.MorTensorCat(square.phi_G).hom(G_ob.zero(), b)
            keys = hs.element_keys()
            # the kernel is taken when the coset is read, and only then
            assert taken == ([] if hs.is_empty else [square.phi_G])
            n_empty += hs.is_empty
            assert keys or hs.is_empty
    assert n_empty >= 10


# -- SU(2) winding quadrature: blocked slices against whole slices ----------

def eager_su2(q0, q1, q2, q3):
    m = np.empty(q0.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = q0 + 1j * q3
    m[..., 0, 1] = q2 + 1j * q1
    m[..., 1, 0] = -q2 + 1j * q1
    m[..., 1, 1] = q0 - 1j * q3
    return m


def eager_frame_density(chi, theta, phi):
    """The old `_frame_density`: angles in, every temporary allocated."""
    schi, cchi = np.sin(chi), np.cos(chi)
    sth, cth = np.sin(theta), np.cos(theta)
    sph, cph = np.sin(phi), np.cos(phi)

    q = eager_su2(cchi, schi * cth, schi * sth * cph, schi * sth * sph)
    e_chi = eager_su2(-schi, cchi * cth, cchi * sth * cph, cchi * sth * sph)
    zeros = np.zeros_like(chi)
    e_theta = eager_su2(zeros, -sth, cth * cph, cth * sph)
    e_phi = eager_su2(zeros, zeros, -sph, cph)

    qi = np.conjugate(np.swapaxes(q, -1, -2))
    t1 = qi @ e_chi
    t2 = qi @ e_theta
    t3 = qi @ e_phi
    comm = t2 @ t3 - t3 @ t2
    dens = 3.0 * np.einsum("...ij,...ji->...", t1, comm)
    return np.real(dens)


def eager_cs_quadrature(refinement):
    """The quadrature with each chi slice evaluated whole by the old
    density (the old `cs_su2_quadrature`, without its certificate)."""
    n_chi, n_theta, n_phi = 4 * refinement, 800 * refinement, 4 * refinement
    d_chi = math.pi / n_chi
    d_theta = math.pi / n_theta
    d_phi = 2.0 * math.pi / n_phi
    thetas = (np.arange(n_theta) + 0.5) * d_theta
    phis = (np.arange(n_phi) + 0.5) * d_phi
    theta_grid, phi_grid = np.meshgrid(thetas, phis, indexing="ij")

    total = 0.0
    for i in range(n_chi):
        chi = (i + 0.5) * d_chi
        chi_grid = np.full_like(theta_grid, chi)
        dens = eager_frame_density(chi_grid, theta_grid, phi_grid)
        weights = (math.sin(chi) ** 2) * np.sin(theta_grid)
        total += float(np.sum(dens * weights)) * d_chi * d_theta * d_phi
    return -total / (24.0 * math.pi ** 2)


def trig(*angles):
    """sin and cos of each angle array, in `_frame_density`'s order."""
    return [f(a) for a in angles for f in (np.sin, np.cos)]


@pytest.mark.parametrize("refinement", [
    1, 2, 3, 4,
    *(pytest.param(r, marks=pytest.mark.slow) for r in range(5, 9))])
def test_blocked_quadrature_matches_whole_slices(refinement):
    assert CS.cs_su2_quadrature(refinement) == eager_cs_quadrature(refinement)


@pytest.mark.parametrize("shape", [(64,), (7, 12), (1, 4)])
def test_frame_density_matches_eager_pointwise(shape):
    rng = np.random.default_rng(23)
    chi, theta = rng.uniform(0.0, math.pi, (2,) + shape)
    phi = rng.uniform(0.0, 2 * math.pi, shape)
    want = eager_frame_density(chi, theta, phi)
    # through buffers of exactly these points and of more of them
    for points in (chi.size, 2 * chi.size):
        got = CS._frame_density(*trig(chi, theta, phi), CS._Buffers(points))
        assert np.array_equal(got, want)


# 30 points is 7 rows of 4: 800 rows leave a last block of 2; 1 point is
# still one whole row per block
@pytest.mark.parametrize("block_points", [30, 1])
def test_ragged_blocks_match_whole_slices(monkeypatch, block_points):
    monkeypatch.setattr(CS, "BLOCK_POINTS", block_points)
    assert CS.cs_su2_quadrature(1) == eager_cs_quadrature(1)


def test_blocked_densities_equal_whole_slice(monkeypatch):
    blocks = []

    def recording(*args):
        dens = frame_density(*args)
        # copies: the quadrature reuses its buffers from block to block
        blocks.append([np.array(a) for a in args[:6]] + [np.array(dens)])
        return dens

    frame_density = CS._frame_density
    monkeypatch.setattr(CS, "_frame_density", recording)
    CS.cs_su2_quadrature(2)
    n_chi, n_theta, n_phi = CS._grid_sizes(2)
    rows = CS.BLOCK_POINTS // n_phi
    per_slice = -(-n_theta // rows)
    assert len(blocks) == n_chi * per_slice
    first = blocks[:per_slice]
    assert all(b[0].shape == (rows, n_phi) for b in first[:-1])
    *grid, dens = (np.concatenate([b[k] for b in first]) for k in range(7))
    assert dens.shape == (n_theta, n_phi)
    assert np.array_equal(dens, frame_density(*grid, CS._Buffers(dens.size)))


# a child that imports the quadrature, then runs it at the refinement
# given as argv[1] (none: import only); it prints nothing
FAULTS_CHILD = """
import sys
from abtqft.invariants.chern_simons import cs_su2_quadrature
if len(sys.argv) > 1:
    cs_su2_quadrature(int(sys.argv[1]))
"""


def _minor_faults(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")])
    pid = os.posix_spawn(sys.executable,
                         [sys.executable, "-c", FAULTS_CHILD, *argv], env)
    _, status, usage = os.wait4(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    return usage.ru_minflt


def test_quadrature_buffers_are_allocated_once():
    # per-block temporaries that glibc hands back to the OS fault in again
    # on every block, so a finer grid's faults grow with its points (8x
    # from r = 1 to 2); buffers held for the whole call fault in once
    base = _minor_faults()
    r1, r2 = (_minor_faults(r) - base for r in ("1", "2"))
    assert r2 <= 3 * max(r1, 1), (base, r1, r2)


def test_quadrature_memory_is_bounded():
    # whole slices peaked at 9.1 MB; one set of 2,048-point block buffers,
    # with the grid's sines and cosines, peaks at 1.6 MB
    tracemalloc.start()
    try:
        CS.cs_su2_quadrature(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
