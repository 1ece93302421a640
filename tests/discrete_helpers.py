"""What the tests ask of `abtqft.discrete` and no production path does,
kept beside the tests that use it.

`mesh_record` writes a complex as the mesh record that
`CellComplex.from_json` and the `geo` verbs read; `gauge_transformed`
moves a lattice connection by the coboundary of a circle 0-cochain.
"""

from abtqft.analytic import wrap_unit
from abtqft.discrete import LatticeConnection


def mesh_record(cx):
    """The mesh record of the complex `cx`, in lists."""
    obj = {
        "cells": {str(k): cx.n_cells[k] for k in range(cx.dim + 1)},
        "boundary": {str(k): [[[i, s] for i, s in b] for b in cx.boundary[k]]
                     for k in range(1, cx.dim + 1)},
    }
    if cx.coords is not None:
        obj["coords"] = [list(row) for row in cx.coords]
    if cx.edge_lengths is not None:
        obj["edge_lengths"] = list(cx.edge_lengths)
    return obj


def gauge_transformed(conn, vertex_turns):
    """`conn` with each edge value multiplied by the coboundary of the
    circle 0-cochain `vertex_turns`; the face lifts are kept."""
    cx = conn.complex
    turns = list(conn.edge_turns)
    for e in range(cx.n_cells[1]):
        tail, head = cx.edge_endpoints(e)
        turns[e] = wrap_unit(turns[e] + vertex_turns[head] - vertex_turns[tail])
    return LatticeConnection(cx, turns, conn.face_lifts)
