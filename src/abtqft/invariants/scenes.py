"""Scene descriptors and geometry providers for the invariant pipelines.

A 3d/4d scene is the quadruple (closed 3-manifold with structure form,
bounding spin 4-manifold with connection); the two integrals it needs
come either from the curated table or from quadrature.  The boundary
compatibility flag is set by the provider during resolution, never by
scene files.

The 1d/2d scenes pair a circle carrying transport values and real lifts
with bounding surfaces; tangent-type boundings come from punctured
metric surfaces, whose boundary circle is matched through its only
gauge invariant, the holonomy.
"""

from __future__ import annotations

from ..analytic import wrap_unit, wrap_half
from ..discrete import surfaces as _surf
from . import table as _table
from .chern_simons import cs_su2_quadrature

SIGN_CONVENTION = "psi(S3-Lie,D4-flat)=+1"


class ProviderError(ValueError):
    pass


class IncompatibleScene(ValueError):
    pass


# integral of the canonical structure 3-form, per (manifold, structure)
_ETA_TABLE = {
    ("S3", "Lie-framing"): -1.0,
    ("empty", "empty"): 0.0,
}

# base value of half the Pontryagin Chern-Weil integral, per
# (bounding manifold, connection datum), plus what it bounds
_NABLA_TABLE = {
    ("D4", "flat-extension"): {"bounds": ("S3", "Lie-framing"), "base": 0.0},
    ("empty", "empty"): {"bounds": ("empty", "empty"), "base": 0.0},
}

_cs_cache = {}


def _cs_value(refinement):
    if refinement not in _cs_cache:
        _cs_cache[refinement] = cs_su2_quadrature(refinement)
    return _cs_cache[refinement]


class SpinGeometryProvider:
    """Source for the two scene integrals; kind is Table or Quadrature.

    Quadrature only ever applies to the 3-dimensional integral; the
    4-dimensional one always comes from the validated table.
    """

    TABLE = "Table"
    QUADRATURE = "Quadrature"

    def __init__(self, kind, refinement=2):
        if kind not in (self.TABLE, self.QUADRATURE):
            raise ProviderError(f"unknown provider kind {kind!r}")
        self.kind = kind
        self.refinement = int(refinement)

    def eta_integral(self, m3_key, eta_key):
        if (m3_key, eta_key) not in _ETA_TABLE:
            raise ProviderError(
                f"no structure-form datum for ({m3_key!r}, {eta_key!r})")
        if self.kind == self.TABLE:
            return _ETA_TABLE[(m3_key, eta_key)]
        if m3_key == "empty":
            return 0.0
        # quadrature path: the canonical 3-form of the Lie framing
        # integrates to a signed unit whose sign must be the table's; the
        # declared sign convention sends the generator scene to +1
        value = _cs_value(self.refinement)
        expected = _ETA_TABLE[(m3_key, eta_key)]
        if (value < 0) != (expected < 0):
            raise ProviderError(
                f"quadrature of ({m3_key!r}, {eta_key!r}) has sign of "
                f"{value}, the table value is {expected}")
        return value

    def half_p1_integral(self, w4_key, nabla_key, glue=()):
        if self.kind == self.QUADRATURE:
            raise ProviderError(
                "4-dimensional Chern-Weil integrals are table-only; "
                "quadrature is not offered for bounding data")
        datum = _NABLA_TABLE.get((w4_key, nabla_key))
        if datum is None:
            raise ProviderError(
                f"no connection datum for ({w4_key!r}, {nabla_key!r})")
        value = datum["base"]
        tbl = _table.shipped_table()
        for name in glue:
            if name not in tbl:
                raise ProviderError(f"unknown closed 4-manifold {name!r}")
            entry = tbl[name]
            if not entry.spin:
                raise ProviderError(
                    f"{name} is not spin; gluing it would break the "
                    "bounding spin structure")
            value += float(entry.half_p1())
        return value

    def bounds(self, w4_key, nabla_key, m3_key, eta_key):
        datum = _NABLA_TABLE.get((w4_key, nabla_key))
        return datum is not None and datum["bounds"] == (m3_key, eta_key)


class ResolvedComponent:
    """One atomic scene after provider resolution.

    `compatible` is set here, by the provider check, and nowhere else.
    """

    def __init__(self, eta_value, nabla_value, label):
        self.eta_value = float(eta_value)
        self.nabla_value = float(nabla_value)
        self.label = label
        self.compatible = True


def _descriptor_provider(desc, default_kind=SpinGeometryProvider.TABLE):
    kind = {"table": SpinGeometryProvider.TABLE,
            "quadrature": SpinGeometryProvider.QUADRATURE}.get(
                desc.get("provider", "table"))
    if kind is None:
        raise ProviderError(f"unknown provider {desc.get('provider')!r}")
    params = desc.get("params", {}) or {}
    return SpinGeometryProvider(kind, refinement=params.get("refinement", 2))


class BnrScene:
    """Descriptor of one or more (M3, eta, W4, nabla) components."""

    def __init__(self, components):
        self.components = list(components)
        for comp in self.components:
            for block in ("m3", "eta", "w4", "nabla"):
                if block not in comp:
                    raise IncompatibleScene(f"scene missing block {block!r}")
                if "compatible" in comp[block] or "compatible" in comp:
                    raise IncompatibleScene(
                        "the compatibility flag is provider-owned and may "
                        "not appear in scene files")

    @classmethod
    def empty(cls):
        return cls([{"m3": {"key": "empty"}, "eta": {"key": "empty"},
                     "w4": {"key": "empty"}, "nabla": {"key": "empty"}}])

    @classmethod
    def s3_lie(cls, eta_provider="table", refinement=2, glue=()):
        return cls([{
            "m3": {"key": "S3"},
            "eta": {"provider": eta_provider, "key": "Lie-framing",
                    "params": {"refinement": refinement}},
            "w4": {"key": "D4"},
            "nabla": {"provider": "table", "key": "flat-extension",
                      "params": {"glue": list(glue)}},
        }])

    @classmethod
    def from_json(cls, obj):
        if "union" in obj:
            comps = []
            for sub in obj["union"]:
                comps.extend(cls.from_json(sub).components)
            return cls(comps)
        return cls([obj])

    def union(self, other):
        return BnrScene(self.components + other.components)

    def resolve(self):
        resolved = []
        for comp in self.components:
            m3_key = comp["m3"].get("key")
            eta_key = comp["eta"].get("key")
            w4_key = comp["w4"].get("key")
            nabla_key = comp["nabla"].get("key")
            eta_provider = _descriptor_provider(comp["eta"])
            nabla_provider = _descriptor_provider(comp["nabla"])
            glue = tuple((comp["nabla"].get("params") or {}).get("glue", ()))
            if not nabla_provider.bounds(w4_key, nabla_key, m3_key, eta_key):
                raise IncompatibleScene(
                    f"({w4_key!r}, {nabla_key!r}) does not bound "
                    f"({m3_key!r}, {eta_key!r}) with matching restriction")
            eta_value = eta_provider.eta_integral(m3_key, eta_key)
            nabla_value = nabla_provider.half_p1_integral(
                w4_key, nabla_key, glue)
            label = f"{m3_key}/{eta_key}|{w4_key}/{nabla_key}"
            if glue:
                label += "+" + "+".join(glue)
            resolved.append(ResolvedComponent(eta_value, nabla_value, label))
        return resolved

    def alternatives(self):
        """Alternative bounding data per component, for certification.

        Every spin entry of the table gives a glued variant of the
        component's bounding datum.
        """
        alts = []
        for comp in self.components:
            w4_key = comp["w4"].get("key")
            nabla_key = comp["nabla"].get("key")
            provider = _descriptor_provider(comp["nabla"])
            glue = tuple((comp["nabla"].get("params") or {}).get("glue", ()))
            variants = [("as-given", glue)]
            variants.append(("bare", ()))
            for entry in _table.spin_entries():
                variants.append((f"+{entry.name}", glue + (entry.name,)))
            alts.append([(label,
                          provider.half_p1_integral(w4_key, nabla_key, g))
                         for label, g in variants])
        return alts


# -- 1d scenes: circle with structure lifts and bounding surfaces ----------

MESH_BUILDERS = {
    "icosahedron": _surf.icosahedron,
    "flat-torus": lambda: _surf.flat_torus(4, 4),
    "eq-torus": lambda: _surf.equilateral_torus(4, 4),
    "flip-torus": lambda: _surf.flipped_torus(4, 4),
    "hex-sphere": _surf.hex_sphere,
    "pent-sphere": _surf.pent_sphere,
    "oct-sphere": _surf.oct_sphere,
    "genus2": _surf.genus2_surface,
}


def build_mesh(name):
    if name not in MESH_BUILDERS:
        raise ProviderError(f"unknown mesh {name!r}; "
                            f"available: {sorted(MESH_BUILDERS)}")
    return MESH_BUILDERS[name]()


class SuBounding:
    """A bounding surface datum: kind, boundary length and holonomy, and
    its total lifted curvature."""

    def __init__(self, kind, k, holonomy, curvature, label):
        self.kind = kind
        self.k = int(k)
        self.holonomy = wrap_unit(holonomy)
        self.curvature = float(curvature)
        self.label = label

    @classmethod
    def from_punctured(cls, punctured, label):
        return cls("tangent", punctured.boundary_length(),
                   punctured.boundary_holonomy(),
                   punctured.total_curvature(), label)


def disk_bounding(lifts, extra_lift=0, label="disk"):
    """Single-face disk carrying the given boundary values.

    A raw-connection bounding (not tangent-type): its curvature is the
    principal log of the boundary product plus an integer lift.
    """
    u = [wrap_unit(a) for a in lifts]
    frac = wrap_half(sum(u))
    return SuBounding("connection", len(lifts), wrap_unit(sum(u)),
                      float(extra_lift) + frac, label)


def tangent_bounding(mesh, puncture, label=None, jitter_rng=None):
    """Tangent-type bounding surface: a punctured metric surface.

    `mesh` is a builder name or a CellComplex with lengths.  Jitter, if
    requested, perturbs every length except those of the triangles at the
    puncture, so the boundary circle is untouched.
    """
    surface = build_mesh(mesh) if isinstance(mesh, str) else mesh
    if jitter_rng is not None:
        frozen = _surf.ring_triangle_edges(surface, puncture)
        surface = _surf.jittered_lengths(surface, jitter_rng,
                                         frozen_edges=frozen)
    bundle = _surf.tangent_connection(surface)
    punct = bundle.punctured(puncture)
    name = label or f"{getattr(surface, 'name', 'surface')}@{puncture}"
    return SuBounding.from_punctured(punct, name)


class SuScene:
    """A circle scene: per-edge structure lifts plus bounding surfaces.

    The circle's transport values are exp(2 pi i lift); every bounding
    surface must restrict to them on its boundary (same length, same
    holonomy up to tolerance).
    """

    def __init__(self, lifts, boundings, label="su-scene"):
        if not boundings:
            raise IncompatibleScene("scene needs at least one bounding")
        self.lifts = [float(a) for a in lifts]
        self.boundings = list(boundings)
        self.label = label

    @classmethod
    def from_primary(cls, primary, extra=(), label=None):
        """Canonical scene of a tangent bounding: constant lifts h/k."""
        c = primary.holonomy / primary.k
        lifts = [c] * primary.k
        return cls(lifts, [primary, *extra], label or primary.label)

    def u(self):
        return [wrap_unit(a) for a in self.lifts]

    def sum_lifts(self):
        total = 0.0
        for a in self.lifts:
            total += a
        return total

    def shifted(self, edge, k):
        """Shift one structure lift by an integer (the torsor action)."""
        if k != int(k):
            raise ValueError("lift shifts must be integers")
        lifts = list(self.lifts)
        lifts[edge] += int(k)
        return SuScene(lifts, self.boundings, self.label + "+shift")

    def disk_bounding(self, extra_lift=0, label="disk"):
        return disk_bounding(self.lifts, extra_lift, label)

    @classmethod
    def from_json(cls, obj):
        spec = obj.get("su")
        if spec is None:
            raise IncompatibleScene("not a 1d scene file (missing 'su')")
        primary = tangent_bounding(spec["primary"]["mesh"],
                                   spec["primary"].get("puncture", 0))
        scene = cls.from_primary(primary)
        for b in spec.get("boundings", []):
            if b.get("kind") == "disk":
                scene.boundings.append(scene.disk_bounding(b.get("lift", 0)))
            else:
                scene.boundings.append(
                    tangent_bounding(b["mesh"], b.get("puncture", 0)))
        for edge, shift in spec.get("lift_shifts", []):
            scene = scene.shifted(edge, shift)
        return scene


# pools of (mesh, puncture) choices with matching boundary circles
SU_POOLS = [
    [("icosahedron", v) for v in range(12)]
    + [("pent-sphere", 0), ("pent-sphere", 6), ("flip-torus", 0),
       ("flip-torus", 5)],
    [("hex-sphere", 0), ("hex-sphere", 7)]
    + [("eq-torus", v) for v in range(16)]
    + [("flat-torus", v) for v in range(16)],
    [("genus2", 0), ("oct-sphere", 0), ("oct-sphere", 9)],
    [("hex-sphere", v) for v in range(1, 7)]
    + [("pent-sphere", v) for v in range(1, 6)],
]


def random_su_scene(rng, jitter=True):
    """A random tangent-type scene: two bounding surfaces from one pool,
    with non-boundary lengths jittered."""
    pool = SU_POOLS[rng.randrange(len(SU_POOLS))]
    (mesh1, v1), (mesh2, v2) = rng.sample(pool, 2)
    j = rng if jitter else None
    primary = tangent_bounding(mesh1, v1, jitter_rng=j)
    second = tangent_bounding(mesh2, v2, jitter_rng=j)
    return SuScene.from_primary(primary, extra=[second])
