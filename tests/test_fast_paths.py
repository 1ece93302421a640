"""The linear-time discrete layer checked against the slow paths it replaced.

Each oracle here is the old quadratic code, kept in the test: the dense
boundary matrix product, the per-vertex scan over all faces for corners
and angle defects, and the ring walk started from that scan.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abtqft.discrete import CellComplex, ComplexError, triangulated_grid
from abtqft.discrete import surfaces as S
from abtqft.invariants.scenes import MESH_BUILDERS

TORI = [(kind, n, m)
        for kind in (S.flat_torus, S.equilateral_torus, S.flipped_torus)
        for n, m in ((12, 20), (16, 16), (20, 12))]

GRIDS = [triangulated_grid(nx, ny) for nx, ny in ((1, 1), (2, 3), (4, 2))]
BUILTINS = [build() for build in MESH_BUILDERS.values()]
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
    assert fast.dtype == np.int64
    assert np.array_equal(fast, cx.boundary_matrix(k) @ vec)


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
    assert T.is_cycle(2, T.boundary_of(3, T.fundamental_chain(3)))


def test_dimension_three_boundary_of_boundary_rejected():
    with pytest.raises(ComplexError, match="dimension 3"):
        tetrahedron(tet_signs=(1, 1, 1, -1))


# -- corner index, angle defects and rings ---------------------------------------

def slow_corners(ms, v):
    return [(f, j) for f in range(ms.complex.n_cells[2]) for j in range(3)
            if ms.corner_vertex[f][j] == v]


def slow_angle_defect(ms, v):
    total = 0.0
    for f, j in slow_corners(ms, v):
        total += ms.corner_angles[f][j]
    return 2.0 * math.pi - total


def slow_ring(bundle, v):
    boundary = bundle.surface.complex.boundary[2]
    start = slow_corners(bundle.surface, v)[0]
    ring = []
    f, j = start
    while True:
        e, sign = boundary[f][(j - 1) % 3]
        ring.append((e, sign))
        f, j = bundle._slots[e][-sign]
        if (f, j) == start:
            return ring


@pytest.mark.parametrize(
    "mesh", BUILTINS + [kind(n, m) for kind, n, m in TORI],
    ids=lambda mesh: mesh.name)
def test_corner_index_matches_face_scan(mesh):
    bundle = S.tangent_connection(mesh)
    ms = bundle.surface
    for v in range(mesh.n_cells[0]):
        assert ms.corners_at[v] == slow_corners(ms, v)
        # bit-identical: the summation order is unchanged
        assert ms.angle_defect(v) == slow_angle_defect(ms, v)
        assert bundle.defects[v] == slow_angle_defect(ms, v)
        assert bundle.rings[v] == slow_ring(bundle, v)


def test_angle_defect_rejects_missing_vertex():
    ms = S.MetricSurface(S.icosahedron())
    for v in (-1, 12):
        with pytest.raises(ComplexError):
            ms.angle_defect(v)


def test_large_flat_torus_chern_number():
    mesh = S.flat_torus(64, 64)
    assert mesh.n_cells[0] == 4096
    assert S.tangent_connection(mesh).chern_number() == 0
