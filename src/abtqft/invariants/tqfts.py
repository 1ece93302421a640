"""Field-theory evaluators on discrete scenes.

Object-level values live in an abelian group (reals or circle), morphism
level values in the group upstairs; functoriality identities (Stokes,
holonomy vs curvature) are exact properties of the discrete substrate.
"""

from __future__ import annotations

from ..discrete.cochains import coboundary, integrate, is_closed
from ..discrete.connections import holonomy, total_curvature


class NotClosedCochain(ValueError):
    pass


def z_stokes_closed(M, omega, chain=None):
    """Integral of a closed cochain over a closed scene.

    Vanishes (within summation noise) whenever the scene bounds and the
    cochain extends.
    """
    if not is_closed(omega):
        raise NotClosedCochain(
            "the closed-background evaluator needs d(omega) = 0")
    if chain is None:
        chain = M.fundamental_chain(omega.degree)
    return integrate(omega, chain)


def z_stokes(M, omega, chain=None):
    """Object-level value of the non-closed variant: the plain integral."""
    if chain is None:
        chain = M.fundamental_chain(omega.degree)
    return integrate(omega, chain)


def z_stokes_rel(W, omega, chain=None):
    """Morphism-level value on a bounding scene: the integral of d(omega)."""
    d = coboundary(omega)
    if chain is None:
        chain = W.fundamental_chain(d.degree)
    return integrate(d, chain)


def z_hol(conn, chain=None):
    """Holonomy of a closed 1-dimensional scene, as a circle value.

    Disjoint circles multiply, i.e. their turns add.
    """
    cx = conn.complex
    if chain is None:
        chain = cx.fundamental_chain(1)
    return holonomy(conn, chain)


def z_hol_rel(conn, chain=None):
    """Morphism-level value of a bounding 2-dimensional scene: the total
    lifted curvature, a real number with exp(2 pi i -) = boundary holonomy."""
    cx = conn.complex
    if chain is None:
        chain = cx.fundamental_chain(2)
    return total_curvature(conn, chain)
