"""The mod-24 and mod-2 bordism invariant pipelines.

A 3d scene component resolves to a pair (g, h): g is half the Pontryagin
Chern-Weil integral of the bounding datum, h the integral of the
canonical structure 3-form.  The pair is an object of the homotopy fiber
of the analytic square (id_R, exp) exactly when exp(g) = exp(h), which
Xi(g, h) = g - h maps to ker(exp) = Z.  The invariant is the sum of Xi
over components, each gated as an integer on its own; the sum is well
defined mod 24 because alternative bounding data differ by half the
Pontryagin number of a closed spin 4-manifold.  The 1d analog is Xi over
the same square, with g the total curvature of a bounding surface and h
the sum of its boundary structure lifts; it is well defined mod 2 by the
evenness of the Euler characteristic of closed oriented surfaces.
"""

from __future__ import annotations

from .. import SIGN_CONVENTION
from ..analytic import nearest_integer

PSI_TOLERANCE = 1e-6
SU_TOLERANCE = 1e-9


class ParityCertificateError(ArithmeticError):
    pass


class InvariantResult:
    """A pipeline's float `raw` and the `integer` it proved `raw` is."""

    def __init__(self, raw, integer, modulus, certificate,
                 convention=SIGN_CONVENTION):
        self.integer_value = integer
        self.raw = float(raw)
        self.modulus = int(modulus)
        self.residue = self.integer_value % self.modulus
        self.certificate = certificate
        self.convention = convention
        for entry in self.certificate:
            diff = entry.get("difference")
            if (diff is not None and entry.get("in_hypothesis", True)
                    and diff % self.modulus != 0):
                raise ParityCertificateError(
                    f"certificate difference {diff} of {entry.get('bounding')} "
                    f"is not a multiple of {self.modulus}")

    def render(self):
        return (f"raw={self.raw:.12g} int={self.integer_value} "
                f"mod{self.modulus}={self.residue} "
                f"convention={self.convention}")

    def __repr__(self):
        return f"InvariantResult({self.render()})"


def psi(scene, certify=False):
    """The mod-24 invariant of a scene: the sum of Xi(g, h) over its
    disjoint components, each gated as an object of the fiber.

    With `certify`, every alternative bounding datum of a component is
    gated the same way and its difference from the given one recorded.
    Every difference is in the hypothesis of the mod-24 theorem, so
    `InvariantResult` rejects any that is not in 24Z (corrupt table data).
    """
    resolved = scene.resolve()
    raw, integers = 0.0, []
    for comp, h, g in resolved:
        xi = g - h
        integers.append(nearest_integer(
            xi, PSI_TOLERANCE, f"component {comp.label}: Xi(g, h) ="))
        raw += xi
    certificate = []
    for (comp, h, g), base_int in zip(resolved, integers if certify else ()):
        for label, alt_g in comp.alternatives():
            alt_int = nearest_integer(
                alt_g - h, PSI_TOLERANCE,
                f"alternative bounding {label} of {comp.label}: Xi(g, h) =")
            certificate.append({"component": comp.label, "bounding": label,
                                "integer": alt_int,
                                "difference": alt_int - base_int,
                                "in_hypothesis": True})
    return InvariantResult(raw, sum(integers), 24, certificate)


def su_psi(scene):
    """The mod-2 invariant of a 1d scene with its bounding surfaces.

    raw = Xi(g, h), g the total curvature of the primary bounding and h
    the sum of the scene's structure lifts; integer by construction.
    Every bounding is an object of the fiber, which `SuScene` checked
    when it was built; certification gates each one's Xi as an integer;
    differences between tangent-type boundings must be even, and an odd
    difference involving a raw-connection bounding is reported as
    out-of-hypothesis rather than fatal.  An odd tangent pair is in the
    hypothesis, so `InvariantResult` rejects it.
    """
    total_lift = scene.sum_lifts()
    primary = scene.boundings[0]
    xis = [b.curvature - total_lift for b in scene.boundings]
    integers = [nearest_integer(xi, SU_TOLERANCE,
                                f"bounding {b.label}: Xi(g, h) =")
                for b, xi in zip(scene.boundings, xis)]
    certificate = []
    for b, r_int in zip(scene.boundings, integers):
        diff = r_int - integers[0]
        tangent_pair = b.kind == "tangent" and primary.kind == "tangent"
        entry = {"bounding": b.label, "integer": r_int,
                 "difference": diff, "kind": b.kind,
                 "in_hypothesis": tangent_pair}
        if diff % 2 != 0 and not tangent_pair:
            entry["note"] = ("odd difference: bounding is outside the "
                             "tangent hypothesis")
        certificate.append(entry)
    return InvariantResult(xis[0], integers[0], 2, certificate,
                           convention="su-lifts")
