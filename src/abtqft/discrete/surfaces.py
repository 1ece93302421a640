"""Triangulated metric surfaces and their discrete Levi-Civita transport.

A closed oriented triangulated surface with edge lengths determines a
U(1) connection on its dual complex: each triangle carries an intrinsic
flat chart, transport across a shared edge is the rotation aligning the
edge direction in the two charts, and the holonomy around a vertex is its
angle defect.  Summing the per-vertex curvatures reproduces the Euler
characteristic (discrete Gauss-Bonnet), which is the degree computation
behind the tangent-bundle Chern number.
"""

from __future__ import annotations

import math

import numpy as np

from ..analytic import nearest_integer, wrap_unit, wrap_half
from .complexes import CellComplex, ComplexError, build_triangle_surface
from .connections import LatticeConnection

TWO_PI = 2.0 * math.pi
LIFT_TOLERANCE = 1e-9  # angle defect / 2 pi vs ring holonomy + lift


class DegenerateTriangle(ValueError):
    pass


class NotClosed(ValueError):
    pass


def _side_tail_head(complex, e, sign):
    tail, head = complex.edge_endpoints(e)
    return (tail, head) if sign == 1 else (head, tail)


class MetricSurface:
    """A 2-complex whose faces are triangles with valid edge lengths.

    Precomputes, per face, the corner angles and the direction angle of
    each directed side in the face's intrinsic chart (side 0 at angle 0,
    turning left by the exterior angle at each junction), and per vertex
    its corners `corners_at[v]` as (face, slot) pairs in ascending order.
    """

    def __init__(self, complex):
        if complex.dim != 2:
            raise ComplexError(f"cells: expected a 2-dimensional complex, "
                               f"got dimension {complex.dim}")
        if complex.edge_lengths is None:
            raise ComplexError("edge_lengths: expected a length per edge, "
                               "got no 'edge_lengths' field")
        self.complex = complex
        self.lengths = complex.edge_lengths
        nf = complex.n_cells[2]
        self.corner_angles = []
        self.side_dirs = []
        self.corners_at = [[] for _ in range(complex.n_cells[0])]
        for f in range(nf):
            sides = complex.boundary[2][f]
            if len(sides) != 3:
                raise ComplexError(f"boundary.2[{f}]: expected the 3 sides of "
                                   f"a triangle, got {len(sides)} sides")
            # sides must chain head-to-tail
            ends = [_side_tail_head(complex, e, sign) for e, sign in sides]
            for j in range(3):
                if ends[j - 1][1] != ends[j][0]:
                    raise ComplexError(
                        f"boundary.2[{f}]: expected sides that chain head to "
                        f"tail, got sides {(j - 1) % 3} and {j} that do not")
            L = [float(self.lengths[e]) for e, _ in sides]
            for (e, _), length in zip(sides, L):
                if length <= 0.0:
                    raise DegenerateTriangle(
                        f"face {f}: edge {e} has non-positive length {length}")
            angles = []
            for j in range(3):
                a, b, c = L[j - 1], L[j], L[(j + 1) % 3]
                cosv = (a * a + b * b - c * c) / (2.0 * a * b)
                if not -1.0 < cosv < 1.0:
                    raise DegenerateTriangle(
                        f"face {f} violates the strict triangle inequality")
                angles.append(math.acos(cosv))
            dirs = [0.0, 0.0, 0.0]
            for j in (1, 2):
                dirs[j] = dirs[j - 1] + (math.pi - angles[j])
            closure = dirs[2] + (math.pi - angles[0])
            if not abs(closure - TWO_PI) < 1e-9:
                raise ComplexError(f"face {f}: chart failed to close")
            self.corner_angles.append(angles)
            self.side_dirs.append(dirs)
            for j, (tail, _) in enumerate(ends):
                self.corners_at[tail].append((f, j))

    def edge_direction_in_chart(self, f, slot):
        """Chart angle of the global orientation of the edge at `slot`."""
        e, sign = self.complex.boundary[2][f][slot]
        d = self.side_dirs[f][slot]
        return d if sign == 1 else d + math.pi

    def angle_defect(self, v):
        if not 0 <= v < len(self.corners_at):
            raise ComplexError(f"no vertex {v}")
        total = 0.0
        for f, j in self.corners_at[v]:
            total += self.corner_angles[f][j]
        return TWO_PI - total


class TangentBundle:
    """Levi-Civita transport of a closed metric surface on its dual.

    dual vertices = faces, dual edges = primal edges (oriented from the
    face traversing the edge positively to the other one), dual faces =
    primal vertices with their counterclockwise corner rings.  The lift
    of each dual face is chosen so its curvature equals defect / 2 pi.
    """

    def __init__(self, surface):
        self.surface = surface
        cx = surface.complex
        ne, nf, nv = cx.n_cells[1], cx.n_cells[2], cx.n_cells[0]

        # side slots per edge; a closed coherently oriented surface has
        # exactly one +1 slot and one -1 slot per edge
        slots = {e: {} for e in range(ne)}
        for f in range(nf):
            for j, (e, sign) in enumerate(cx.boundary[2][f]):
                if sign in slots[e]:
                    raise NotClosed(
                        f"edge {e} traversed twice with the same sign; "
                        "surface not closed and coherently oriented")
                slots[e][sign] = (f, j)
        for e in range(ne):
            if set(slots[e]) != {1, -1}:
                raise NotClosed(f"edge {e} is a boundary edge")
        self._slots = slots

        dual_edge_bnd = []
        turns = np.zeros(ne)
        for e in range(ne):
            f_plus, j_plus = slots[e][1]
            f_minus, j_minus = slots[e][-1]
            a_plus = surface.edge_direction_in_chart(f_plus, j_plus)
            a_minus = surface.edge_direction_in_chart(f_minus, j_minus)
            turns[e] = wrap_unit((a_minus - a_plus) / TWO_PI)
            dual_edge_bnd.append([(f_plus, -1), (f_minus, 1)])

        self.rings = [self._ring(v) for v in range(nv)]
        self.dual = CellComplex._derived({0: nf, 1: ne, 2: nv},
                                         {1: dual_edge_bnd, 2: self.rings},
                                         name="dual")
        self.defects = np.array([surface.angle_defect(v) for v in range(nv)])

        # each ring's sum is the connection's face fraction over these turns
        lifts = [nearest_integer(self.defects[v] / TWO_PI - wrap_half(sum(
            sign * turns[e] for e, sign in ring)), LIFT_TOLERANCE,
            f"vertex {v}: angle defect / 2 pi - ring holonomy =")
            for v, ring in enumerate(self.rings)]
        self.connection = LatticeConnection(self.dual, turns, lifts)

    def _ring(self, v):
        """Counterclockwise crossings around v as (edge, sign) pairs.

        Corners are tracked as (face, slot) with the junction vertex at
        the tail of the slot's side, so surfaces with glued or repeated
        vertices (one-vertex tori, identified polygons) work unchanged.
        """
        cx = self.surface.complex
        corners = self.surface.corners_at[v]
        if not corners:
            raise ComplexError(f"vertex {v} has no incident triangle")
        # each (edge, sign) has one slot, so the step is a bijection on
        # corners and the walk first returns to its start
        start = corners[0]
        ring = []
        f, j = start
        while True:
            e, sign = cx.boundary[2][f][(j - 1) % 3]
            ring.append((e, sign))
            f, j = self._slots[e][-sign]
            if (f, j) == start:
                break
        if len(ring) != len(corners):
            raise ComplexError(
                f"vertex {v} link splits into several cycles")
        return ring

    def chern_number(self):
        from .connections import chern_number
        return chern_number(self.connection,
                            [(v, 1) for v in range(self.dual.n_cells[2])])

    def punctured(self, v):
        return PuncturedSurface(self, v)


class PuncturedSurface:
    """A tangent bundle with one dual face removed.

    The remaining 2-chain has the reversed vertex ring as boundary; its
    induced traversal carries the canonical transport lifts used by the
    1-dimensional structure-lift pipeline.
    """

    def __init__(self, bundle, vertex):
        self.bundle = bundle
        self.vertex = vertex
        nv = bundle.dual.n_cells[2]
        if not (0 <= vertex < nv):
            raise ComplexError(f"no vertex {vertex}")
        self.chain = [(f, 1) for f in range(nv) if f != vertex]

    def total_curvature(self):
        from .connections import total_curvature
        return total_curvature(self.bundle.connection,
                               self.bundle.dual.chain_vector(2, self.chain))

    def boundary_cycle(self):
        """(edge, sign) pairs of the boundary circle, induced orientation."""
        ring = self.bundle.rings[self.vertex]
        return [(e, -s) for e, s in reversed(ring)]

    def boundary_length(self):
        return len(self.bundle.rings[self.vertex])

    def boundary_holonomy(self):
        """Holonomy of the boundary circle (induced orientation), in [0, 1)."""
        conn = self.bundle.connection
        total = 0.0
        for e, s in self.boundary_cycle():
            total += wrap_half(s * conn.edge_turns[e])
        return wrap_unit(total)


def tangent_connection(complex):
    """Discrete Levi-Civita transport of a closed triangulated surface.

    Takes a CellComplex with edge lengths and returns the TangentBundle;
    `.connection` is the induced lattice connection on the dual complex
    and `.chern_number()` recovers the Euler characteristic.
    """
    return TangentBundle(MetricSurface(complex))


# -- mesh library -----------------------------------------------------------

def icosahedron():
    """The regular icosahedron with its round coordinates."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    coords = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            coords.append((0.0, a, b))
            coords.append((a, b, 0.0))
            coords.append((b, 0.0, a))
    coords = np.array(coords)
    # faces as outward-oriented triples over the 12 vertices
    edge_len = 2.0
    n = len(coords)
    # face order, hence every edge and face index, follows the
    # lexicographic order of the vertex triples
    dist = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1))
    near = (np.abs(dist - edge_len) < 1e-9).tolist()
    tris = [(i, j, k) for i in range(n) for j in range(i + 1, n) if near[i][j]
            for k in range(j + 1, n) if near[i][k] and near[j][k]]
    if len(tris) != 20:
        raise ComplexError(f"icosahedron has {len(tris)} faces, not 20")
    a, b, c = (coords[list(col)] for col in zip(*tris))
    outward = (np.cross(b - a, c - a) * (a + b + c)).sum(-1) > 0
    tris = [(i, j, k) if out else (i, k, j)
            for (i, j, k), out in zip(tris, outward)]
    return build_triangle_surface(12, tris, lambda a, b: edge_len,
                                  coords=coords, name="icosahedron")


def _torus_grid(n, m, name, diagonal=1.0, flip=False):
    """n x m grid of squares on the torus, each split along its diagonal
    from (i, j) to (i + 1, j + 1); `flip` uses the other diagonal in
    square (0, 0).  Diagonals have length `diagonal`, all other edges 1.
    """
    if n < 3 or m < 3:
        raise ComplexError("torus grid needs n, m >= 3 to stay simplicial")

    def vid(i, j):
        return (j % m) * n + (i % n)

    tris = []
    for j in range(m):
        for i in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            if flip and i == 0 and j == 0:
                tris.append((v00, v10, v01))
                tris.append((v10, v11, v01))
            else:
                tris.append((v00, v10, v11))
                tris.append((v00, v11, v01))

    def lengths(a, b):
        ai, aj = a % n, a // n
        bi, bj = b % n, b // n
        di = min((ai - bi) % n, (bi - ai) % n)
        dj = min((aj - bj) % m, (bj - aj) % m)
        return diagonal if (di and dj) else 1.0

    return build_triangle_surface(n * m, tris, lengths=lengths, name=name)


def flat_torus(n=4, m=4):
    """Flat square torus: n x m grid of squares, each split by a diagonal."""
    return _torus_grid(n, m, f"torus{n}x{m}", diagonal=math.sqrt(2.0))


def equilateral_torus(n=4, m=4):
    """Flat rhombic torus: the same combinatorics with every length 1."""
    return _torus_grid(n, m, f"eqtorus{n}x{m}")


def flipped_torus(n=4, m=4):
    """Equilateral torus with one diagonal flipped.

    The flip creates two 5-valent and two 7-valent vertices while every
    length stays 1, so vertex (0,0) acquires the same equilateral 5-ring
    as an icosahedron vertex but the surface keeps genus 1.
    """
    return _torus_grid(n, m, f"fliptorus{n}x{m}", flip=True)


def _bipyramid_sphere(k, name, rim_length=1.0):
    """Closed sphere mesh: a k-fan around a center, capped by an apex.

    Spokes have length 1 and the rim `rim_length`.  With everything 1 the
    k = 6 poles are flat and k = 5 gives them an icosahedral defect; with
    rim 2*sin(pi/8) the k = 8 poles are flat as well.
    """
    center, apex = 0, k + 1
    ring = [1 + i for i in range(k)]
    tris = []
    for i in range(k):
        a, b = ring[i], ring[(i + 1) % k]
        tris.append((center, a, b))
        tris.append((apex, b, a))
    ring_set = set(ring)

    def lengths(a, b):
        return rim_length if (a in ring_set and b in ring_set) else 1.0

    return build_triangle_surface(k + 2, tris, lengths=lengths, name=name)


def hex_sphere():
    return _bipyramid_sphere(6, "hexsphere")


def pent_sphere():
    return _bipyramid_sphere(5, "pentsphere")


def oct_sphere():
    """Sphere with flat 8-valent poles (rim shrunk to 2 sin(pi/8))."""
    return _bipyramid_sphere(8, "octsphere", rim_length=2.0 * math.sin(math.pi / 8.0))


def genus2_surface():
    """Genus-2 surface from a regular octagon with glued sides.

    One center vertex, one identified boundary vertex, eight spokes and
    four glued boundary edges; the whole negative curvature sits at the
    identified vertex (defect -4 pi).
    """
    spoke_len = 1.0
    base_len = 2.0 * math.sin(math.pi / 8.0)
    # edges: 0..7 spokes (center -> rim), 8..11 glued octagon sides
    edge_bnd = [[(0, -1), (1, 1)] for _ in range(8)]
    edge_bnd += [[(1, -1), (1, 1)] for _ in range(4)]
    lengths = [spoke_len] * 8 + [base_len] * 4
    # octagon side word a b a^-1 b^-1 c d c^-1 d^-1
    word = [(8, 1), (9, 1), (8, -1), (9, -1), (10, 1), (11, 1), (10, -1), (11, -1)]
    faces = []
    for i in range(8):
        base_e, base_s = word[i]
        faces.append([(i, 1), (base_e, base_s), ((i + 1) % 8, -1)])
    return CellComplex({0: 2, 1: 12, 2: 8}, {1: edge_bnd, 2: faces},
                       edge_lengths=lengths, name="genus2")


MESH_BUILDERS = {"icosahedron": icosahedron, "flat-torus": flat_torus,
                 "eq-torus": equilateral_torus, "flip-torus": flipped_torus,
                 "hex-sphere": hex_sphere, "pent-sphere": pent_sphere,
                 "oct-sphere": oct_sphere, "genus2": genus2_surface}


def build_mesh(name):
    """The builtin surface `name`, a key of MESH_BUILDERS."""
    if not isinstance(name, str) or name not in MESH_BUILDERS:
        raise ValueError(f"unknown mesh {name!r}; "
                         f"available: {sorted(MESH_BUILDERS)}")
    return MESH_BUILDERS[name]()


def jittered_lengths(surface, rng, frozen_edges=()):
    """Copy of a surface with lengths multiplied by 1 +- 0.05.

    Edges in `frozen_edges` keep their length, so boundary rings shared
    between paired surfaces stay metrically identical.
    """
    frozen = set(frozen_edges)
    L = surface.edge_lengths.copy()
    for e in range(len(L)):
        if e not in frozen:
            L[e] = L[e] * (1.0 + 0.05 * (2.0 * rng.random() - 1.0))
    return CellComplex._derived(
        surface.n_cells, surface.boundary, coords=surface.coords,
        edge_lengths=L, name=(surface.name or "surface") + "-jittered")


def ring_triangle_edges(surface, vertex):
    """Edges of all triangles having a corner at `vertex` (for freezing).

    The corners of a triangle are the endpoints of its sides, so this
    needs the combinatorics of the complex `surface` only.
    """
    edges = set()
    for sides in surface.boundary[2]:
        if any(idx == vertex for e, _ in sides
               for idx, _ in surface.boundary[1][e]):
            edges.update(e for e, _ in sides)
    return edges
