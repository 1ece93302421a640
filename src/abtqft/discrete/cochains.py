"""Real-valued cochains with coboundary, integration and the Stokes check;
numpy loads only in the two reductions, `coboundary` and `integrate`."""

from __future__ import annotations

from ..reader import node
from .complexes import as_reals, require_integers


class DegreeError(ValueError):
    pass


class Cochain:
    """A degree-k cochain: one finite real per k-cell of its complex."""

    def __init__(self, complex, degree, values):
        if not 0 <= degree <= 3:
            raise DegreeError(f"degree: expected an integer in 0..3, got "
                              f"{degree!r}")
        values = as_reals(values, "values")
        if len(values) != complex.n_cells[degree]:
            raise DegreeError(
                f"values: expected {complex.n_cells[degree]} entries, one "
                f"per {degree}-cell, got {len(values)}")
        self.complex = complex
        self.degree = degree
        self.values = values

    @classmethod
    def from_json(cls, complex, obj):
        """The cochain of a {"degree": k, "values": [...]} record, one
        value per k-cell."""
        doc = node(obj)
        return cls(complex, doc.field("degree").int(),
                   doc.field("values").reals())


def coboundary(omega):
    """(d omega)(c) = signed sum of omega over the boundary of c."""
    k = omega.degree
    if k >= 3:
        raise DegreeError("coboundary of a top-degree cochain")
    B = omega.complex.boundary_matrix(k + 1)
    return Cochain(omega.complex, k + 1, (B.T @ omega.values).tolist())


def integrate(omega, chain_vec):
    """Signed sum of a k-cochain over a dense integer k-chain vector."""
    if len(chain_vec) != omega.complex.n_cells[omega.degree]:
        raise DegreeError("chain vector length mismatch")
    require_integers(chain_vec)
    import numpy as np
    return float(np.dot(np.asarray(chain_vec, dtype=float), omega.values))


def check_stokes(W, omega):
    """(lhs, rhs): omega integrated over the boundary of W's fundamental
    (k+1)-chain and d(omega) over that chain, which Stokes makes agree up
    to float re-association."""
    k = omega.degree
    if k + 1 > W.dim:
        # d(omega) is integrated over (k+1)-cells
        raise DegreeError(f"degree: expected an integer in 0..{W.dim - 1}, "
                          f"got {k}")
    chain = W.fundamental_chain(k + 1)
    boundary_chain = W.boundary_of(k + 1, chain)
    lhs = integrate(omega, boundary_chain)
    rhs = integrate(coboundary(omega), chain)
    return lhs, rhs
