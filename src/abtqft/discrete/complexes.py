"""Oriented cell complexes of dimension <= 3 with signed boundary data."""

from __future__ import annotations

import sys

import numpy as np

from ..intmat import as_int


class ComplexError(ValueError):
    pass


def as_reals(values, where, ndim=1):
    """`values` as a float array once every entry (of every row, each as
    long as the first, with `ndim=2`) is a finite float or an int within
    the float range; a bool, string, None or list there is refused as
    `where[i]`, shown as read.  A numeric array skips the per-entry scan."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        for i, x in enumerate(values):
            if ndim > 1 and isinstance(x, (list, tuple, np.ndarray)) and (
                    len(x) == len(values[0])):
                as_reals(x, f"{where}[{i}]", ndim - 1)
            elif ndim > 1 or type(x) is not float and (
                    isinstance(x, bool) or not isinstance(
                        x, (int, float, np.integer, np.floating))
                    or abs(x) > sys.float_info.max):
                expected = "a row of reals" if ndim > 1 else "a finite real"
                raise ValueError(f"{where}[{i}]: expected {expected}, "
                                 f"got {x!r}")
    reals = np.asarray(values, dtype=float)
    finite = np.isfinite(reals)
    if not finite.all():
        at = tuple(np.argwhere(~finite)[0].tolist())
        raise ValueError(f"{where}{''.join(f'[{i}]' for i in at)}: expected "
                         f"a finite real, got {float(reals[at])!r}")
    return reals


class CellComplex:
    """Graded cells with signed boundary incidence lists.

    `boundary[k]` holds, for each k-cell, a list of (face_index, sign)
    pairs over the (k-1)-cells.  Input is checked once: the constructor
    verifies every index, every sign and boundary of boundary = 0, cell
    by cell over the incidence lists, in time linear in the number of
    incidences; complexes derived from valid ones (`_derived`) are valid
    by construction.  Dense boundary matrices are built only when
    `boundary_matrix` is asked for.  Optional vertex coordinates and finite
    edge lengths support quadrature and metric constructions.
    """

    def __init__(self, cell_counts, boundary, coords=None, edge_lengths=None,
                 name=None):
        self._set(cell_counts, {
            k: [list(map(tuple, b)) for b in boundary.get(k, [])]
            for k in range(1, 4)}, coords, edge_lengths, name)
        for k in range(1, 4):
            if len(self.boundary[k]) != self.n_cells[k]:
                raise ComplexError(
                    f"dimension {k}: {len(self.boundary[k])} boundary lists "
                    f"for {self.n_cells[k]} cells")
            for c, faces in enumerate(self.boundary[k]):
                for idx, sign in faces:
                    if not (0 <= idx < self.n_cells[k - 1]):
                        raise ComplexError(
                            f"cell {c} of dimension {k} references "
                            f"missing {k-1}-cell {idx}")
                    if sign not in (1, -1):
                        raise ComplexError(f"boundary sign {sign} is not +-1")
        for k in range(2, self.dim + 1):
            lower = self.boundary[k - 1]
            for c, faces in enumerate(self.boundary[k]):
                total = {}
                for idx, sign in faces:
                    for idx2, sign2 in lower[idx]:
                        total[idx2] = total.get(idx2, 0) + sign * sign2
                if any(total.values()):
                    raise ComplexError(
                        f"boundary of boundary nonzero in dimension {k} "
                        f"at cell {c}")

    @classmethod
    def _derived(cls, cell_counts, boundary, coords=None, edge_lengths=None,
                 name=None):
        """Unchecked incidence, valid by construction in each caller:
        `jittered_lengths` shares the lists of a valid complex; the sides
        (a, b), (b, c), (c, a) of a `build_triangle_surface` triangle with
        distinct, range-checked vertices have boundaries summing to zero; the
        dual of a `TangentBundle` sums (next face - current face) around each
        vertex ring, which `_ring` proves closed.  Reals pass `as_reals`."""
        cx = cls.__new__(cls)
        cx._set(cell_counts, boundary, coords, edge_lengths, name)
        return cx

    def _set(self, cell_counts, boundary, coords, edge_lengths, name):
        self.dim = max((k for k, n in cell_counts.items() if n > 0), default=0)
        self.n_cells = {k: int(cell_counts.get(k, 0)) for k in range(4)}
        self.boundary = {k: boundary.get(k, []) for k in range(1, 4)}
        self.name = name
        self.coords = coords if coords is None else as_reals(coords, "coords", 2)
        if self.coords is not None and len(self.coords) != self.n_cells[0]:
            raise ComplexError("one coordinate row per vertex required")
        self.edge_lengths = (None if edge_lengths is None
                             else as_reals(edge_lengths, "edge_lengths"))
        if (self.edge_lengths is not None
                and len(self.edge_lengths) != self.n_cells[1]):
            raise ComplexError("one length per edge required")

    def boundary_matrix(self, k):
        """Integer matrix of the boundary operator on k-chains."""
        M = np.zeros((self.n_cells[k - 1], self.n_cells[k]), dtype=np.int64)
        for c, faces in enumerate(self.boundary.get(k, [])):
            for idx, sign in faces:
                M[idx, c] += sign
        return M

    # -- chains -----------------------------------------------------------

    def chain_vector(self, k, chain):
        """Coefficient vector of a chain given as (cell, coeff) pairs."""
        v = np.zeros(self.n_cells[k], dtype=np.int64)
        for idx, coeff in chain:
            if not (0 <= idx < self.n_cells[k]):
                raise ComplexError(f"no {k}-cell with index {idx}")
            v[idx] += coeff
        return v

    def fundamental_chain(self, k):
        return np.ones(self.n_cells[k], dtype=np.int64)

    def boundary_of(self, k, chain_vec):
        """Boundary of an integer k-chain vector, summed over the incidence
        lists; equal to `boundary_matrix(k) @ chain_vec`, exactly."""
        if k < 1:
            raise ComplexError("0-chains have no boundary")
        chain_vec = np.asarray(chain_vec)
        if chain_vec.shape != (self.n_cells[k],):
            raise ComplexError(
                f"chain vector of shape {chain_vec.shape} for "
                f"{self.n_cells[k]} cells of dimension {k}")
        if chain_vec.dtype.kind not in "biu":
            raise ComplexError("chain coefficients must be integers")
        out = [0] * self.n_cells[k - 1]
        for faces, coeff in zip(self.boundary[k], chain_vec.tolist()):
            if coeff:
                for idx, sign in faces:
                    out[idx] += sign * coeff
        return np.array(out, dtype=np.int64)

    def is_cycle(self, k, chain_vec):
        return not np.any(self.boundary_of(k, chain_vec))

    def edge_endpoints(self, e):
        """(tail, head) of an edge from its signed boundary."""
        tail = head = None
        for idx, sign in self.boundary[1][e]:
            if sign == 1:
                head = idx
            else:
                tail = idx
        if tail is None or head is None:
            raise ComplexError(f"edge {e} lacks a (+1, -1) endpoint pair")
        return tail, head

    def __repr__(self):
        counts = ", ".join(f"{self.n_cells[k]}x{k}d"
                           for k in range(self.dim + 1))
        return f"CellComplex({self.name or counts})"

    # -- JSON -------------------------------------------------------------

    def to_json(self):
        obj = {
            "cells": {str(k): self.n_cells[k] for k in range(self.dim + 1)},
            "boundary": {str(k): [[[i, s] for i, s in b]
                                  for b in self.boundary[k]]
                         for k in range(1, self.dim + 1)},
        }
        if self.coords is not None:
            obj["coords"] = self.coords.tolist()
        if self.edge_lengths is not None:
            obj["edge_lengths"] = self.edge_lengths.tolist()
        return obj

    @classmethod
    def from_json(cls, obj, name=None):
        """The complex of a mesh record; a cell count, incidence index or
        sign that is not an exact integer is named by its field."""
        if "cells" not in obj:
            raise ComplexError("mesh record missing 'cells'")
        counts = {int(k): as_int(v, f"cells.{k}")
                  for k, v in obj["cells"].items()}
        boundary = {int(k): [[tuple(as_int(x, f"boundary.{k}[{c}][{n}]")
                                    for x in pair)
                              for n, pair in enumerate(faces)]
                             for c, faces in enumerate(cells)]
                    for k, cells in obj.get("boundary", {}).items()}
        return cls(counts, boundary, coords=obj.get("coords"),
                   edge_lengths=obj.get("edge_lengths"), name=name)


def circle_complex(n, name=None):
    """Cycle with n vertices and n edges, edge i from vertex i to i+1."""
    if n < 1:
        raise ComplexError("a circle needs at least one edge")
    boundary = {1: [[(i, -1), ((i + 1) % n, 1)] for i in range(n)]}
    return CellComplex({0: n, 1: n}, boundary, name=name or f"circle{n}")


def path_complex(n_edges):
    """Path with n_edges edges on n_edges + 1 vertices."""
    boundary = {1: [[(i, -1), (i + 1, 1)] for i in range(n_edges)]}
    return CellComplex({0: n_edges + 1, 1: n_edges}, boundary)


def polygon_disk(n, name=None):
    """A single n-gon face glued onto the n-edge circle."""
    boundary = {
        1: [[(i, -1), ((i + 1) % n, 1)] for i in range(n)],
        2: [[(i, 1) for i in range(n)]],
    }
    return CellComplex({0: n, 1: n, 2: 1}, boundary, name=name or f"disk{n}")


def build_triangle_surface(n_vertices, triangles, lengths=None, coords=None,
                           name=None):
    """Simplicial surface from counterclockwise vertex triples; if given,
    `lengths(a, b)` is the length of the edge between vertices a < b.

    Edges are keyed by unordered vertex pairs, so no repeated vertices or
    parallel edges are allowed here; meshes with identifications are
    built from explicit cell data instead.
    """
    edge_index = {}

    def side(a, b):
        if a == b:
            raise ComplexError("loop edge in a simplicial surface")
        if not (0 <= a < n_vertices and 0 <= b < n_vertices):
            raise ComplexError(f"side ({a}, {b}) leaves 0..{n_vertices - 1}")
        e = edge_index.setdefault((min(a, b), max(a, b)), len(edge_index))
        return (e, 1 if a < b else -1)

    faces = [[side(a, b), side(b, c), side(c, a)] for a, b, c in triangles]
    edge_bnd = [[(a, -1), (b, 1)] for a, b in edge_index]
    L = None if lengths is None else [lengths(a, b) for a, b in edge_index]
    return CellComplex._derived(
        {0: n_vertices, 1: len(edge_bnd), 2: len(faces)},
        {1: edge_bnd, 2: faces}, coords=coords, edge_lengths=L, name=name)


def triangulated_grid(nx, ny):
    """Triangulated (nx x ny)-rectangle; vertices on the integer grid."""
    if nx < 1 or ny < 1:
        raise ComplexError("grid needs at least one cell per direction")

    def vid(i, j):
        return j * (nx + 1) + i

    triangles = []
    for j in range(ny):
        for i in range(nx):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            triangles += [(v00, v10, v11), (v00, v11, v01)]
    coords = np.array([[i, j] for j in range(ny + 1) for i in range(nx + 1)])
    return build_triangle_surface((nx + 1) * (ny + 1), triangles,
                                  coords=coords, name=f"grid{nx}x{ny}")
