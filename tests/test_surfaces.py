import functools
import hashlib
import json
import math
import pathlib
import random
from types import SimpleNamespace

import pytest

from abtqft.analytic import circle_distance
from abtqft.discrete import surfaces as S
from abtqft.discrete.complexes import ComplexError
from abtqft.discrete import tangent_connection, chern_number


ALL_MESHES = [
    ("icosahedron", S.icosahedron, 2),
    ("flat_torus", lambda: S.flat_torus(4, 4), 0),
    ("equilateral_torus", lambda: S.equilateral_torus(3, 5), 0),
    ("flipped_torus", lambda: S.flipped_torus(4, 4), 0),
    ("hex_sphere", S.hex_sphere, 2),
    ("pent_sphere", S.pent_sphere, 2),
    ("oct_sphere", S.oct_sphere, 2),
    ("genus2", S.genus2_surface, -2),
]


@pytest.mark.parametrize("name,builder,chi", ALL_MESHES)
def test_chern_equals_euler_characteristic(name, builder, chi):
    surface = builder()
    bundle = tangent_connection(surface)
    assert bundle.chern_number() == chi
    # the combinatorial count agrees
    v, e, f = (surface.n_cells[0], surface.n_cells[1], surface.n_cells[2])
    assert v - e + f == chi


@pytest.mark.parametrize("name,builder,chi", ALL_MESHES)
def test_vertex_curvature_is_angle_defect(name, builder, chi):
    surface = builder()
    ms = S.MetricSurface(surface)
    bundle = S.TangentBundle(ms)
    for v in range(surface.n_cells[0]):
        assert bundle.connection.curvature(v) == pytest.approx(
            ms.angle_defect(v) / (2 * math.pi), abs=1e-9)


def test_total_defect_theorem():
    # sum of defects = 2 pi chi, combinatorially forced for triangle meshes
    for name, builder, chi in ALL_MESHES:
        ms = S.MetricSurface(builder())
        total = sum(ms.angle_defect(v)
                    for v in range(ms.complex.n_cells[0]))
        assert total == pytest.approx(2 * math.pi * chi, abs=1e-9)


def test_jitter_preserves_chern():
    rng = random.Random(31)
    for name, builder, chi in ALL_MESHES:
        surface = S.jittered_lengths(builder(), rng)
        assert tangent_connection(surface).chern_number() == chi


def test_degenerate_triangle_rejected():
    surface = S.icosahedron()
    lengths = list(surface.edge_lengths)
    lengths[0] = 4.0 + lengths[1] + lengths[2]  # violates every triangle
    from abtqft.discrete.complexes import CellComplex
    broken = CellComplex({k: surface.n_cells[k] for k in range(3)},
                         {k: surface.boundary[k] for k in (1, 2)},
                         edge_lengths=lengths)
    with pytest.raises(S.DegenerateTriangle):
        tangent_connection(broken)


def test_not_closed_rejected():
    from abtqft.discrete.complexes import triangulated_grid
    W = triangulated_grid(2, 2)
    lengths = [1.0] * W.n_cells[1]
    W2 = type(W)({k: W.n_cells[k] for k in range(3)},
                 {k: W.boundary[k] for k in (1, 2)}, edge_lengths=lengths)
    with pytest.raises(S.NotClosed):
        tangent_connection(W2)


def test_punctured_invariants():
    bundle = tangent_connection(S.icosahedron())
    p = bundle.punctured(0)
    assert p.boundary_length() == 5
    # total curvature = chi - defect/2pi of the removed vertex
    assert p.total_curvature() == pytest.approx(2 - 1 / 6, abs=1e-9)
    # boundary holonomy is the removed vertex's defect, reversed
    assert circle_distance(p.boundary_holonomy(), -1 / 6) <= 1e-9
    # the boundary cycle is an actual cycle of the dual complex
    vec = bundle.dual.chain_vector(1, p.boundary_cycle())
    nv = bundle.dual.n_cells[2]
    chain = bundle.dual.chain_vector(2, [(f, 1) for f in range(nv)
                                         if f != p.vertex])
    removed = bundle.dual.chain_vector(2, [(p.vertex, 1)])
    expected = [-x for x in bundle.dual.boundary_of(2, removed)]
    assert bundle.dual.boundary_of(2, chain) == expected
    assert not any(bundle.dual.boundary_of(1, vec))


def test_matching_rings_across_surfaces():
    # the 5-rings of the icosahedron, the pentagonal sphere poles and the
    # flipped torus 5-valent vertices carry the same boundary data
    data = set()
    for mesh, v in [(S.icosahedron(), 0), (S.pent_sphere(), 0),
                    (S.pent_sphere(), 6), (S.flipped_torus(4, 4), 0)]:
        p = tangent_connection(mesh).punctured(v)
        data.add((p.boundary_length(), round(p.boundary_holonomy(), 9)))
    assert len(data) == 1


def test_dual_complex_closed():
    for name, builder, chi in ALL_MESHES:
        bundle = tangent_connection(builder())
        chain = bundle.dual.fundamental_chain(2)
        # no boundary: closed surface
        assert not any(bundle.dual.boundary_of(2, chain))


def test_builtin_meshes_are_shared_and_left_unchanged():
    from abtqft.cli import main
    from abtqft.invariants import random_su_scene, tangent_bounding
    from abtqft.invariants.scenes import SU_POOLS
    rng = random.Random("shared builtin meshes")
    for pool in SU_POOLS:
        for mesh, v in pool:
            tangent_bounding(mesh, v, jitter_rng=rng)
    for name in S.MESH_BUILDERS:
        assert main(["geo", "chern", f"builtin:{name}", "tangent"]) == 0
    for seed in range(20):
        random_su_scene(random.Random(seed))
    for name, build in S.MESH_BUILDERS.items():
        shared, fresh = S.build_mesh(name), build()
        assert shared is S.build_mesh(name)
        assert (shared.name, shared.to_json()) == (fresh.name, fresh.to_json())
        # no caller can write to the incidence every caller shares
        assert all(type(cells) is tuple and all(type(c) is tuple for c in cells)
                   for cells in shared.boundary.values())
        assert type(shared.edge_lengths) is tuple


def test_jittered_copies_share_their_builtin_dual():
    from abtqft.discrete import CellComplex
    rng = random.Random("shared duals")
    for name, build in S.MESH_BUILDERS.items():
        shared = S.build_mesh(name)
        dual = tangent_connection(shared).dual
        copies = [S.jittered_lengths(shared, rng) for _ in range(2)]
        assert all(tangent_connection(cx).dual is dual for cx in copies)
        # a fresh build of the mesh derives a dual of its own
        assert tangent_connection(build()).dual is not dual
        assert all(type(cells) is tuple and all(type(c) is tuple for c in cells)
                   for cells in (dual.boundary[1], dual.boundary[2]))
        again = CellComplex(dual.n_cells, dual.boundary, name="dual")
        assert again.to_json() == dual.to_json()


def test_corners_are_derived_once_per_topology(monkeypatch):
    from abtqft.discrete import CellComplex
    from abtqft.invariants import random_su_scene
    derived = []
    corners_at = S.SurfaceTopology.corners_at

    def counting(topology):
        derived.append(topology.complex.name)
        return corners_at.func(topology)

    counted = functools.cached_property(counting)
    counted.__set_name__(S.SurfaceTopology, "corners_at")
    monkeypatch.setattr(S.SurfaceTopology, "corners_at", counted)
    monkeypatch.setattr(S, "_shared_mesh",
                        functools.cache(S._shared_mesh.__wrapped__))
    for seed in range(20):
        random_su_scene(random.Random(seed))
    # every builtin touched derives its corners at most once
    assert derived and sorted(derived) == sorted(set(derived))
    assert set(derived) <= {S.build_mesh(n).name for n in S.MESH_BUILDERS}
    shared = S.build_mesh("icosahedron")
    rng = random.Random("shared corners")
    first, second = (S.MetricSurface(S.jittered_lengths(shared, rng))
                     for _ in range(2))
    assert first.corners_at is second.corners_at
    assert first.topology is second.topology is shared.topology
    # a complex of no builtin derives its own, once per metric surface
    with open(pathlib.Path(__file__).parent.parent / "samples"
              / "mesh_square.json") as fh:
        rec = json.load(fh)
    square = CellComplex.from_json({**rec, "edge_lengths": [1.0] * 4 + [1.5]},
                                   "square")
    for cx in (S.flat_torus(5, 5), square):
        del derived[:]
        a, b = S.MetricSurface(cx), S.MetricSurface(cx)
        assert derived == [cx.name] * 2 and a.corners_at is not b.corners_at
        assert a.corners_at == b.corners_at
    # a malformed builtin raises on every build and caches nothing
    bad = {**rec, "edge_lengths": [1.0] * 5, "boundary": {
        **rec["boundary"], "2": [rec["boundary"]["2"][0],
                                 [[4, 1], [3, 1], [2, 1]]]}}
    monkeypatch.setitem(S.MESH_BUILDERS, "unchained",
                        lambda: CellComplex.from_json(bad, "unchained"))
    del derived[:]
    for _ in range(2):
        with pytest.raises(ComplexError, match=r"boundary\.2\[1\]: expected "
                           "sides that chain head to tail"):
            S.MetricSurface(S.build_mesh("unchained"))
    assert derived == ["unchained"] * 2
    assert "corners_at" not in vars(S.build_mesh("unchained").topology)


def test_ring_triangle_edges_cover_incident_faces():
    surface = S.icosahedron()
    edges = S.ring_triangle_edges(surface, 0)
    for f in range(surface.n_cells[2]):
        # slot j's corner is the tail of side j as the face traverses it
        corners = [surface.edge_endpoints(e)[0 if sign == 1 else 1]
                   for e, sign in surface.boundary[2][f]]
        if 0 in corners:
            for e, _ in surface.boundary[2][f]:
                assert e in edges


# sha256 of (n_cells, boundary[1], boundary[2], edge_lengths, name) of each
# torus, as built by the three separate grid loops the shared grid helper
# replaced: the fold keeps triangle order, lengths and names
TORUS_DIGESTS = {
    ("flat_torus", 4, 4): "2bbc0968a6f27d72b88fb82311970b8749bc4aca783d732096202ffa8b9a86d8",
    ("flat_torus", 5, 3): "8b04f558a39c1d5ff6e880cd9c4477f1e6eca0b1a0515128fcba9fc0e51dae92",
    ("flat_torus", 3, 6): "204bd38918046dcfc639c564d4b18450a74e2452971a79329e7f32894229db44",
    ("equilateral_torus", 4, 4): "1d467cf37d260ad38855d102ac4425193cd6ee39085e08d71acc7977fb96cc61",
    ("equilateral_torus", 5, 3): "1ced1290592a91c27d7dd16d95ad2c3b39a035ffcccbafaf1542d19173e5b5b9",
    ("equilateral_torus", 3, 6): "fc4e55cb4e2589b7195117eb9defc56359a0ef0483689cf472e0ded846c1fdae",
    ("flipped_torus", 4, 4): "7e463b6f1269414c36de3a83d53b0c3c0a74626218f76ff46451e3aa6aecee87",
    ("flipped_torus", 5, 3): "edf88809d66a68ecef447db6e13f865fe67e723cdbfdbb78d0e9f807a49401af",
    ("flipped_torus", 3, 6): "221a42782074e910f629015a32b4ac5695c8a1309dc7e7251a1acaa93f7af504",
}


@pytest.mark.parametrize("kind,n,m", sorted(TORUS_DIGESTS))
def test_torus_builders_pinned(kind, n, m):
    cx = getattr(S, kind)(n, m)
    rec = [sorted(cx.n_cells.items()), cx.boundary[1], cx.boundary[2],
           list(cx.edge_lengths), cx.name]
    digest = hashlib.sha256(json.dumps(rec).encode()).hexdigest()
    assert digest == TORUS_DIGESTS[(kind, n, m)]


@pytest.mark.parametrize("build, message", [
    (lambda: tangent_connection(S.icosahedron()).punctured(12),
     "no vertex 12"),
    (lambda: tangent_connection(S.icosahedron()).punctured(-1),
     "no vertex -1"),
    (lambda: S.flat_torus(2, 3),
     "torus grid needs n, m >= 3 to stay simplicial"),
], ids=["puncture-past-the-end", "puncture-negative", "torus-too-small"])
def test_out_of_range_sizes_are_refused(build, message):
    # the puncture check is the only gate for a programmatic caller;
    # scene files meet the reader's `puncture` range check first
    with pytest.raises(ComplexError, match=f"^{message}$"):
        build()


def test_a_chart_that_does_not_close_is_refused(monkeypatch):
    # every corner read as 1 radian: the exterior turns miss 2 pi
    surface = S.icosahedron()
    monkeypatch.setattr(S, "math", SimpleNamespace(acos=lambda c: 1.0,
                                                   pi=math.pi))
    with pytest.raises(ComplexError, match="^face 0: chart failed to close$"):
        S.MetricSurface(surface)
