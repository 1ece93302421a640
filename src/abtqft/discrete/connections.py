"""Lattice U(1) connections: edge transport, holonomy, curvature lifts.

Edge values are stored as "turns" t_e in [0, 1), standing for the circle
element exp(2*pi*i*t_e); traversing an edge against its orientation
contributes -t_e.  Each 2-cell carries an explicit integer curvature lift
n_f, so curvature(f) = n_f + principal(sum of boundary turns) and the
integer ambiguity of the log is visible data rather than a hidden choice.
Turns and lifts are lists of Python floats and ints; only `holonomy`
loads numpy.
"""

from __future__ import annotations

from ..analytic import (as_float_exact_int, circle_distance, nearest_integer,
                        sum_in_order, wrap_half, wrap_unit)
from ..reader import node
from .complexes import as_reals


CHERN_TOLERANCE = 1e-9


class ConnectionDataError(ValueError):
    pass


class NonCycleError(ValueError):
    pass


class LatticeConnection:
    def __init__(self, complex, edge_turns, face_lifts=None):
        edge_turns = as_reals(edge_turns, "edge_phases", 1, complex.n_cells[1])
        if face_lifts is None:
            face_lifts = [0] * complex.n_cells[2]
        face_lifts = [as_float_exact_int(n, f"face_lifts[{f}]")
                      for f, n in enumerate(face_lifts)]
        if len(face_lifts) != complex.n_cells[2]:
            raise ConnectionDataError(
                f"face_lifts: expected {complex.n_cells[2]} entries, got "
                f"{len(face_lifts)}")
        self.complex = complex
        self.edge_turns = [wrap_unit(t) for t in edge_turns]
        self.face_lifts = face_lifts

    def face_fraction(self, f):
        """Principal branch in (-1/2, 1/2] of the boundary edge product."""
        return principal_fraction(self.edge_turns,
                                  self.complex.boundary[2][f])

    def curvature(self, f):
        """Lifted curvature of face f in turns: lift + principal fraction."""
        return float(self.face_lifts[f]) + self.face_fraction(f)

    @classmethod
    def from_json(cls, complex, obj):
        """The connection of a record: a phase per edge and, optionally,
        an integer lift per face."""
        doc = node(obj)
        lifts = ([n.int() for n in doc.field("face_lifts").list()]
                 if doc.has("face_lifts") else None)
        return cls(complex, doc.field("edge_phases").reals(), lifts)


def principal_fraction(turns, sides):
    """Principal branch of the turns along (edge, sign) `sides`, in order."""
    return wrap_half(sum_in_order(sign * turns[e] for e, sign in sides))


def holonomy(conn, chain_vec):
    """Circle value (in turns) of the transport around a closed 1-chain.

    `chain_vec` is a dense integer 1-chain vector; it must be a cycle,
    which `boundary_of` checks on the coefficients as given.  The value
    does not depend on the starting point since the turns simply add.
    """
    if any(conn.complex.boundary_of(1, chain_vec)):
        raise NonCycleError("the loop is not closed")
    import numpy as np
    return wrap_unit(float(np.dot(np.asarray(chain_vec, dtype=float),
                                  conn.edge_turns)))


def total_curvature(conn, chain_vec):
    """Sum of lifted face curvatures over a dense integer 2-chain vector,
    in ascending face order.

    Satisfies exp(2 pi i total) = holonomy of the chain boundary for
    every lift choice.
    """
    if len(chain_vec) != conn.complex.n_cells[2]:
        raise ConnectionDataError(
            f"chain vector of length {len(chain_vec)} for "
            f"{conn.complex.n_cells[2]} faces")
    return sum_in_order(coeff * conn.curvature(f)
                        for f, coeff in enumerate(chain_vec) if coeff)


def chern_number(conn, closed_surface):
    """Integer total curvature of a closed 2-cycle.

    Raises on non-cycles and on the empty chain, which bounds no surface;
    a total further than `CHERN_TOLERANCE` from an integer can only come
    from corrupted data and is an error as well.
    """
    cx = conn.complex
    vec = cx.chain_vector(2, closed_surface)
    if not any(vec) or any(cx.boundary_of(2, vec)):
        raise NonCycleError("chern number needs a closed surface (a 2-cycle)")
    return nearest_integer(total_curvature(conn, vec), CHERN_TOLERANCE,
                           "total curvature of the cycle =")


def holonomy_curvature_gap(conn, surface_chain):
    """Circular distance between exp(total curvature) and the boundary
    holonomy; zero up to float re-association."""
    vec = conn.complex.chain_vector(2, surface_chain)
    total = total_curvature(conn, vec)
    hol = holonomy(conn, conn.complex.boundary_of(2, vec))
    return circle_distance(total, hol)
