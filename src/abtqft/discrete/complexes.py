"""Oriented cell complexes of dimension <= 3 with signed boundary data;
chains are int lists and reals are float tuples, so only `boundary_matrix`
loads numpy."""

from __future__ import annotations

import math
import sys
from numbers import Integral, Real

from ..reader import node


class ComplexError(ValueError):
    pass


def as_reals(values, where, ndim=1, length=None):
    """`values` as a tuple of Python floats (with `ndim=2`, a tuple of such
    rows) once every entry is a finite real: a float, an int within the
    float range or a numpy scalar of either, and there are `length`
    entries (rows) where given.  A bool, string, None or list there is
    refused as `where[i]`, shown as read, and so is a non-finite value."""
    if ndim > 1:
        reals = tuple(as_reals(row, f"{where}[{i}]", ndim - 1)
                      for i, row in enumerate(values))
    else:
        for i, x in enumerate(values):
            if type(x) is not float and (
                    isinstance(x, bool) or not isinstance(x, Real)
                    or abs(x) > sys.float_info.max):
                raise ValueError(f"{where}[{i}]: expected a finite real, "
                                 f"got {x!r}")
        reals = tuple(map(float, values))
        for i, x in enumerate(reals):
            if not math.isfinite(x):
                raise ValueError(f"{where}[{i}]: expected a finite real, "
                                 f"got {x!r}")
    if length is not None and len(reals) != length:
        raise ValueError(f"{where}: expected {length} entries, got "
                         f"{len(reals)}")
    return reals


def require_integers(chain_vec):
    """The gate of a chain's coefficients: each is an integer, not a bool."""
    if not all(type(c) is int or isinstance(c, Integral)
               and not isinstance(c, bool) for c in chain_vec):
        raise ComplexError("chain coefficients must be integers")


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
        for k, n in cell_counts.items():
            if n < 0:
                raise ComplexError(f"cells.{k}: expected an integer >= 0, "
                                   f"got {n}")
        self._set(cell_counts, {
            k: [list(map(tuple, b)) for b in boundary.get(k, [])]
            for k in range(1, 4)}, coords, edge_lengths, name)
        for k in range(1, 4):
            cells, faces_below = self.n_cells[k], self.n_cells[k - 1]
            if len(self.boundary[k]) != cells:
                raise ComplexError(
                    f"boundary.{k}: expected {cells} boundary lists, one per "
                    f"{k}-cell, got {len(self.boundary[k])}")
            for c, faces in enumerate(self.boundary[k]):
                for j, (idx, sign) in enumerate(faces):
                    if not 0 <= idx < faces_below or sign not in (1, -1):
                        raise ComplexError(
                            f"boundary.{k}[{c}][{j}]: expected a [cell, sign] "
                            f"pair with cell in 0..{faces_below - 1} and sign "
                            f"1 or -1, got [{idx}, {sign}]")
        for k in range(2, self.dim + 1):
            lower = self.boundary[k - 1]
            for c, faces in enumerate(self.boundary[k]):
                total = {}
                for idx, sign in faces:
                    for idx2, sign2 in lower[idx]:
                        total[idx2] = total.get(idx2, 0) + sign * sign2
                if any(total.values()):
                    raise ComplexError(
                        f"boundary.{k}[{c}]: boundary of boundary nonzero "
                        f"in dimension {k}")

    @classmethod
    def _derived(cls, cell_counts, boundary, coords=None, edge_lengths=None,
                 name=None):
        """Unchecked incidence, valid by construction in each caller:
        `jittered_lengths` shares the incidence of a valid complex, for a
        builtin mesh that of the one process-wide copy; the sides
        (a, b), (b, c), (c, a) of a `build_triangle_surface` triangle with
        distinct, range-checked vertices have boundaries summing to zero; the
        dual of `SurfaceTopology.dual_side` sums (next - current face) over
        each vertex ring, which its walk proves closed.  Reals: `as_reals`."""
        cx = cls.__new__(cls)
        cx._set(cell_counts, boundary, coords, edge_lengths, name)
        return cx

    def _set(self, cell_counts, boundary, coords, edge_lengths, name):
        self.dim = max((k for k, n in cell_counts.items() if n > 0), default=0)
        self.n_cells = {k: int(cell_counts.get(k, 0)) for k in range(4)}
        self.boundary = {k: boundary.get(k, []) for k in range(1, 4)}
        self.name = name
        self.coords = (None if coords is None else
                       as_reals(coords, "coords", 2, self.n_cells[0]))
        self.edge_lengths = (None if edge_lengths is None else as_reals(
            edge_lengths, "edge_lengths", 1, self.n_cells[1]))

    def boundary_matrix(self, k):
        """Integer matrix of the boundary operator on k-chains."""
        import numpy as np
        M = np.zeros((self.n_cells[k - 1], self.n_cells[k]), dtype=np.int64)
        for c, faces in enumerate(self.boundary.get(k, [])):
            for idx, sign in faces:
                M[idx, c] += sign
        return M

    # -- chains -----------------------------------------------------------

    def chain_vector(self, k, chain):
        """Coefficient list of a chain given as (cell, coeff) pairs."""
        v = [0] * self.n_cells[k]
        for idx, coeff in chain:
            if not (0 <= idx < self.n_cells[k]):
                raise ComplexError(f"no {k}-cell with index {idx}")
            v[idx] += coeff
        return v

    def fundamental_chain(self, k):
        return [1] * self.n_cells[k]

    def boundary_of(self, k, chain_vec):
        """Boundary of an integer k-chain vector, summed over the incidence
        lists; equal to `boundary_matrix(k) @ chain_vec`, exactly."""
        if k < 1:
            raise ComplexError("0-chains have no boundary")
        if len(chain_vec) != self.n_cells[k]:
            raise ComplexError(
                f"chain vector of length {len(chain_vec)} for "
                f"{self.n_cells[k]} cells of dimension {k}")
        require_integers(chain_vec)
        out = [0] * self.n_cells[k - 1]
        for faces, coeff in zip(self.boundary[k], map(int, chain_vec)):
            if coeff:
                for idx, sign in faces:
                    out[idx] += sign * coeff
        return out

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

    # -- JSON -------------------------------------------------------------

    def to_json(self):
        obj = {
            "cells": {str(k): self.n_cells[k] for k in range(self.dim + 1)},
            "boundary": {str(k): [[[i, s] for i, s in b]
                                  for b in self.boundary[k]]
                         for k in range(1, self.dim + 1)},
        }
        if self.coords is not None:
            obj["coords"] = [list(row) for row in self.coords]
        if self.edge_lengths is not None:
            obj["edge_lengths"] = list(self.edge_lengths)
        return obj

    @classmethod
    def from_json(cls, obj, name=None):
        """The complex of a mesh record; the reader checks its JSON shape,
        the constructor its counts, cells and signs."""
        doc = node(obj)
        counts = {int(k): n.int()
                  for k, n in doc.field("cells").items(_DIMENSIONS)}
        boundary = {
            int(k): [[tuple(x.int() for x in pair.list(2))
                      for pair in faces.list()] for faces in cells.list()]
            for k, cells in doc.field("boundary", {}).items(_DIMENSIONS[1:])}
        coords = doc.field("coords").reals(2) if doc.has("coords") else None
        lengths = (doc.field("edge_lengths").reals()
                   if doc.has("edge_lengths") else None)
        return cls(counts, boundary, coords=coords, edge_lengths=lengths,
                   name=name)


_DIMENSIONS = ("0", "1", "2", "3")


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
    coords = [(i, j) for j in range(ny + 1) for i in range(nx + 1)]
    return build_triangle_surface((nx + 1) * (ny + 1), triangles,
                                  coords=coords, name=f"grid{nx}x{ny}")
