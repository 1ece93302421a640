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

import functools
import math

from ..analytic import nearest_integer, sum_in_order, wrap_unit, wrap_half
from .complexes import CellComplex, ComplexError, build_triangle_surface
from .connections import LatticeConnection, chern_number, principal_fraction

TWO_PI = 2.0 * math.pi
LIFT_TOLERANCE = 1e-9  # angle defect / 2 pi vs ring holonomy + lift


class DegenerateTriangle(ValueError):
    pass


class NotClosed(ValueError):
    pass


class MetricSurface:
    """A 2-complex whose faces are triangles with valid edge lengths: its
    `topology` checks the faces' chaining, and it computes only what the
    lengths decide, per face the corner angles and the direction angle of
    each directed side in the face's intrinsic chart (side 0 at angle 0,
    turning left by the exterior angle at each junction)."""

    def __init__(self, complex):
        if complex.dim != 2:
            raise ComplexError(f"cells: expected a 2-dimensional complex, "
                               f"got dimension {complex.dim}")
        if complex.edge_lengths is None:
            raise ComplexError("edge_lengths: expected a length per edge, "
                               "got no 'edge_lengths' field")
        self.complex, self.lengths = complex, complex.edge_lengths
        self.topology = _topology(complex)
        self.corners_at = self.topology.corners_at    # checks the chaining
        self.corner_angles, self.side_dirs = [], []
        for f, sides in enumerate(complex.boundary[2]):
            L = [self.lengths[e] for e, _ in sides]
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
            dirs = [0.0, math.pi - angles[1]]
            dirs.append(dirs[1] + (math.pi - angles[2]))
            closure = dirs[2] + (math.pi - angles[0])
            if not abs(closure - TWO_PI) < 1e-9:
                raise ComplexError(f"face {f}: chart failed to close")
            self.corner_angles.append(angles)
            self.side_dirs.append(dirs)

    def edge_direction_in_chart(self, f, slot):
        """Chart angle of the global orientation of the edge at `slot`."""
        e, sign = self.complex.boundary[2][f][slot]
        d = self.side_dirs[f][slot]
        return d if sign == 1 else d + math.pi

    def angle_defect(self, v):
        if not 0 <= v < len(self.corners_at):
            raise ComplexError(f"no vertex {v}")
        return TWO_PI - sum_in_order(self.corner_angles[f][j]
                                     for f, j in self.corners_at[v])


class SurfaceTopology:
    """What a closed surface's incidence alone determines, derived on first
    use and read-only after: its vertex stars, corners and tangent dual
    side.  A builtin has one, which `jittered_lengths` hands to its copies."""

    def __init__(self, complex):
        self.complex = complex

    @functools.cached_property
    def stars(self):
        """vertex -> edges of the triangles with a side ending there."""
        stars = {}
        for sides in self.complex.boundary[2]:
            edges = [e for e, _ in sides]
            for e in edges:
                for v, _ in self.complex.boundary[1][e]:
                    stars.setdefault(v, set()).update(edges)
        return {v: frozenset(s) for v, s in stars.items()}

    @functools.cached_property
    def corners_at(self):
        """vertex -> its corners, (face, slot) pairs in ascending order,
        once every face is checked to be a triangle whose sides chain."""
        cx = self.complex
        ends_of = list(map(cx.edge_endpoints, range(cx.n_cells[1])))
        corners_at = [[] for _ in range(cx.n_cells[0])]
        for f, sides in enumerate(cx.boundary[2]):
            if len(sides) != 3:
                raise ComplexError(f"boundary.2[{f}]: expected the 3 sides of "
                                   f"a triangle, got {len(sides)} sides")
            # sides must chain head-to-tail; a -1 side runs head to tail
            ends = [ends_of[e][::sign] for e, sign in sides]
            for j in range(3):
                if ends[j - 1][1] != ends[j][0]:
                    raise ComplexError(
                        f"boundary.2[{f}]: expected sides that chain head to "
                        f"tail, got sides {(j - 1) % 3} and {j} that do not")
                corners_at[ends[j][0]].append((f, j))    # at the side's tail
        return tuple(map(tuple, corners_at))

    @functools.cached_property
    def dual_side(self):
        """(slots, rings, dual) from each vertex's ascending corners:
        slots[e] holds the (face, slot) of edge e's +1 side, then its -1
        side's; the dual has the faces as vertices, an edge from the + face
        to the - face per edge and each vertex's ccw ring as a face."""
        cx = self.complex
        ne, faces = cx.n_cells[1], cx.boundary[2]
        # closed and coherently oriented: side (e, s) has one slot
        by_sign = {1: [None] * ne, -1: [None] * ne}
        for f, sides in enumerate(faces):
            for j, (e, sign) in enumerate(sides):
                if by_sign[sign][e] is not None:
                    raise NotClosed(
                        f"edge {e} traversed twice with the same sign; "
                        "surface not closed and coherently oriented")
                by_sign[sign][e] = (f, j)
        slots = tuple(zip(by_sign[1], by_sign[-1]))
        for e, ends in enumerate(slots):
            if None in ends:
                raise NotClosed(f"edge {e} is a boundary edge")
        rings = []
        for v, corners in enumerate(self.corners_at):
            # v is at the tail of each corner's side, so glued vertices
            # work; each side has one slot, so the walk comes back
            if not corners:
                raise ComplexError(f"vertex {v} has no incident triangle")
            ring, (f, j) = [], corners[0]
            while not ring or (f, j) != corners[0]:
                e, sign = side = faces[f][(j - 1) % 3]
                ring.append(side)
                f, j = by_sign[-sign][e]
            if len(ring) != len(corners):
                raise ComplexError(
                    f"vertex {v} link splits into several cycles")
            rings.append(tuple(ring))
        rings = tuple(rings)
        return slots, rings, CellComplex._derived(
            {0: len(faces), 1: ne, 2: len(rings)},
            {1: tuple(((plus[0], -1), (minus[0], 1))
                      for plus, minus in slots), 2: rings}, name="dual")


def _topology(complex):
    """The topology `complex` shares, or else a fresh one for its surface."""
    return getattr(complex, "topology", None) or SurfaceTopology(complex)


class TangentBundle:
    """Levi-Civita transport of a closed metric surface on the dual side of
    its topology (`SurfaceTopology.dual_side`); each call computes the turns,
    defects, ring fractions and lifts, lift + fraction = defect / 2 pi.
    """

    def __init__(self, surface):
        self.surface = surface
        slots, self.rings, self.dual = surface.topology.dual_side
        # per edge, the turn from its + slot's chart to its - slot's
        chart = surface.edge_direction_in_chart
        turns = [wrap_unit((chart(*minus) - chart(*plus)) / TWO_PI)
                 for plus, minus in slots]
        self.defects = list(map(surface.angle_defect, range(len(self.rings))))
        # each ring's fraction is the connection's face fraction
        self.fractions = [principal_fraction(turns, ring)
                          for ring in self.rings]
        lifts = [nearest_integer(
            self.defects[v] / TWO_PI - fraction, LIFT_TOLERANCE,
            f"vertex {v}: angle defect / 2 pi - ring holonomy =")
            for v, fraction in enumerate(self.fractions)]
        self.connection = LatticeConnection(self.dual, turns, lifts)

    def chern_number(self):
        return chern_number(self.connection,
                            [(v, 1) for v in range(self.dual.n_cells[2])])

    def punctured(self, v):
        return PuncturedSurface(self, v)


class PuncturedSurface:
    """A tangent bundle with one dual face removed.

    The remaining 2-chain, every other dual face once, has the reversed
    vertex ring as boundary; its induced traversal carries the canonical
    transport lifts used by the 1-dimensional structure-lift pipeline.
    """

    def __init__(self, bundle, vertex):
        self.bundle, self.vertex = bundle, vertex
        if not (0 <= vertex < bundle.dual.n_cells[2]):
            raise ComplexError(f"no vertex {vertex}")

    def total_curvature(self):
        """`connections.total_curvature` of the remaining 2-chain, bit for
        bit: the connection keeps the bundle's turns (`wrap_unit` of a turn
        in [0, 1) is that turn) and lifts, and the rings are its faces."""
        lifts, v = self.bundle.connection.face_lifts, self.vertex
        return sum_in_order(float(lifts[f]) + x for f, x in
                            enumerate(self.bundle.fractions) if f != v)

    def boundary_cycle(self):
        """(edge, sign) pairs of the boundary circle, induced orientation."""
        ring = self.bundle.rings[self.vertex]
        return [(e, -s) for e, s in reversed(ring)]

    def boundary_length(self):
        return len(self.bundle.rings[self.vertex])

    def boundary_holonomy(self):
        """Holonomy of the boundary circle (induced orientation), in [0, 1)."""
        turns = self.bundle.connection.edge_turns
        return wrap_unit(sum_in_order(wrap_half(s * turns[e])
                                      for e, s in self.boundary_cycle()))


def tangent_connection(complex):
    """Discrete Levi-Civita transport of a closed triangulated surface with
    edge lengths: its TangentBundle, whose `.connection` lives on the dual
    complex and whose `.chern_number()` is the Euler characteristic."""
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
    # faces as outward-oriented triples over the 12 vertices
    edge_len = 2.0
    n = len(coords)
    # face order, hence every edge and face index, follows the
    # lexicographic order of the vertex triples
    near = [[abs(math.dist(p, q) - edge_len) < 1e-9 for q in coords]
            for p in coords]
    tris = [(i, j, k) for i in range(n) for j in range(i + 1, n) if near[i][j]
            for k in range(j + 1, n) if near[i][k] and near[j][k]]

    def outward(a, b, c):
        # a . (b x c) > 0: the face turns counterclockwise seen from outside
        return (a[0] * (b[1] * c[2] - b[2] * c[1])
                + a[1] * (b[2] * c[0] - b[0] * c[2])
                + a[2] * (b[0] * c[1] - b[1] * c[0])) > 0

    tris = [(i, j, k) if outward(coords[i], coords[j], coords[k])
            else (i, k, j) for i, j, k in tris]
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
    """The builtin surface `name`, a key of MESH_BUILDERS, built once per
    process with its topology and shared read-only: incidence as tuples."""
    if not isinstance(name, str) or name not in MESH_BUILDERS:
        raise ValueError(f"unknown mesh {name!r}; "
                         f"available: {sorted(MESH_BUILDERS)}")
    return _shared_mesh(name)


@functools.cache
def _shared_mesh(name):
    cx = MESH_BUILDERS[name]()
    cx.boundary = {k: tuple(map(tuple, b)) for k, b in cx.boundary.items()}
    cx.topology = SurfaceTopology(cx)
    return cx


def jittered_lengths(surface, rng, frozen_edges=()):
    """Copy of `surface`, sharing its incidence and topology, with lengths
    multiplied by 1 +- 0.05.  Edges in `frozen_edges` keep their length, so
    boundary rings shared between paired surfaces stay metrically identical.
    """
    frozen = set(frozen_edges)
    L = [x if e in frozen else x * (1.0 + 0.05 * (2.0 * rng.random() - 1.0))
         for e, x in enumerate(surface.edge_lengths)]
    copy = CellComplex._derived(
        surface.n_cells, surface.boundary, edge_lengths=L,
        name=(surface.name or "surface") + "-jittered")
    # gate the new lengths, which can overflow; the coords are gated already
    copy.coords, copy.topology = surface.coords, _topology(surface)
    return copy


def ring_triangle_edges(surface, vertex):
    """Edges of all triangles having a corner at `vertex` (for freezing),
    from the stars of the topology of the complex `surface`."""
    return _topology(surface).stars.get(vertex, frozenset())
