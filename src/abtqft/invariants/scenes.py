"""Scene descriptors and the integrals they resolve to.

A 3d/4d scene is the quadruple (closed 3-manifold with structure form,
bounding spin 4-manifold with connection).  Each component is read and
checked once, when the scene is built: boundary compatibility is the
table's bounds relation, which scene files may not set, and glued
4-manifolds must be spin.  Resolution then takes the structure-form
integral from the table or from quadrature, and half the Pontryagin
integral from the table.

The 1d/2d scenes pair a circle carrying transport values and real lifts
with bounding surfaces; tangent-type boundings come from punctured
metric surfaces, whose boundary circle is matched through its only
gauge invariant, the holonomy, when the scene is built.
"""

from __future__ import annotations

from ..analytic import (as_float_exact_int, as_int, circle_distance,
                        sum_in_order, wrap_half, wrap_unit)
from ..reader import node
from . import MAX_REFINEMENT
from . import table as _table
from .psi import SU_TOLERANCE

# the most a lift shift may round its lift: a thousandth of the holonomy
# tolerance, which the shifted circle must still meet
SHIFT_ROUNDING = SU_TOLERANCE / 1000


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

# the keys each descriptor block may name
_BLOCK_KEYS = {block: sorted({pair[i] for pair in table})
               for block, table, i in (("m3", _ETA_TABLE, 0),
                                       ("eta", _ETA_TABLE, 1),
                                       ("w4", _NABLA_TABLE, 0),
                                       ("nabla", _NABLA_TABLE, 1))}

_cs_cache = {}


def eta_integral(m3_key, eta_key, refinement=None):
    """Integral of the canonical structure 3-form over (m3_key, eta_key),
    a pair of the table (the only pairs a `SceneComponent` bounds).

    The table value, or with a refinement level the signed quadrature,
    whose sign must be the table's: the declared sign convention sends
    the generator scene to +1.
    """
    expected = _ETA_TABLE[(m3_key, eta_key)]
    if refinement is None or m3_key == "empty":
        return expected
    if refinement not in _cs_cache:
        from .chern_simons import cs_su2_quadrature
        _cs_cache[refinement] = cs_su2_quadrature(refinement)
    value = _cs_cache[refinement]
    if (value < 0) != (expected < 0):
        # a fault of the quadrature or the table, not of the scene file
        raise ArithmeticError(
            f"quadrature of ({m3_key!r}, {eta_key!r}) has sign of "
            f"{value}, the table value is {expected}")
    return value


def half_p1_integral(w4_key, nabla_key, glue=()):
    """Half the Pontryagin Chern-Weil integral of a table bounding datum
    with the named closed spin 4-manifolds of the table glued in (a
    `SceneComponent` checks both); table-only."""
    value = _NABLA_TABLE[(w4_key, nabla_key)]["base"]
    tbl = _table.shipped_table()
    for name in glue:
        value += float(tbl[name].half_p1())
    return value


def _block(desc, block):
    """(key, provider, params) of one descriptor block."""
    spec = desc.field(block)
    key = spec.field("key").str(_BLOCK_KEYS[block])
    for owner in (desc, spec):
        if owner.has("compatible"):
            raise IncompatibleScene(
                f"{owner.field('compatible').path}: the compatibility flag "
                "is provider-owned and may not appear in scene files")
    return (key, spec.field("provider", "table").str(("table", "quadrature")),
            spec.field("params", {}).obj())


class SceneComponent:
    """One (M3, eta, W4, nabla) component, read and checked once from its
    descriptor: the bounding datum must bound (M3, eta) and every glued
    4-manifold must be spin.

    `refinement` is None when the structure-form integral comes from the
    table, else the quadrature's refinement level; `glue` names the closed
    spin 4-manifolds glued into the bounding datum.
    """

    def __init__(self, desc):
        self.m3, _, _ = _block(desc, "m3")
        self.eta, eta_provider, eta_params = _block(desc, "eta")
        self.w4, _, _ = _block(desc, "w4")
        self.nabla, nabla_provider, nabla_params = _block(desc, "nabla")
        refinement = eta_params.field("refinement", 2).int(1, MAX_REFINEMENT)
        self.refinement = refinement if eta_provider == "quadrature" else None
        if nabla_provider != "table":
            raise ProviderError(
                f"{desc.field('nabla').path}.provider: 4-dimensional "
                "Chern-Weil integrals are table-only; quadrature is not "
                "offered for bounding data")
        tbl = _table.shipped_table()
        glue = nabla_params.field("glue", []).list()
        self.glue = tuple(name.str(sorted(tbl)) for name in glue)
        for name in glue:
            if not tbl[name.value].spin:
                raise ProviderError(f"{name.path}: expected a spin closed "
                                    f"4-manifold, got {name.value!r}")
        datum = _NABLA_TABLE.get((self.w4, self.nabla))
        if datum is None or datum["bounds"] != (self.m3, self.eta):
            raise IncompatibleScene(
                f"{desc.field('nabla').field('key').path}: expected a "
                f"bounding datum of ({self.m3!r}, {self.eta!r}) with matching "
                f"restriction, got ({self.w4!r}, {self.nabla!r})")
        self.label = f"{self.m3}/{self.eta}|{self.w4}/{self.nabla}"
        if self.glue:
            self.label += "+" + "+".join(self.glue)

    def alternatives(self):
        """(label, half-p1 integral) of each alternative bounding datum,
        for certification: as given, bare, and glued with one more spin
        entry of the table."""
        variants = [("as-given", self.glue), ("bare", ())]
        for entry in _table.spin_entries():
            variants.append((f"+{entry.name}", self.glue + (entry.name,)))
        return [(label, half_p1_integral(self.w4, self.nabla, glue))
                for label, glue in variants]


class BnrScene:
    """Descriptor of one or more (M3, eta, W4, nabla) components."""

    def __init__(self, components):
        self.components = [SceneComponent(node(desc)) for desc in components]

    @classmethod
    def empty(cls):
        return cls([{"m3": {"key": "empty"}, "eta": {"key": "empty"},
                     "w4": {"key": "empty"}, "nabla": {"key": "empty"}}])

    @classmethod
    def s3_lie(cls, glue=()):
        return cls([{"m3": {"key": "S3"}, "eta": {"key": "Lie-framing"},
                     "w4": {"key": "D4"},
                     "nabla": {"key": "flat-extension",
                               "params": {"glue": list(glue)}}}])

    @classmethod
    def from_json(cls, obj):
        return cls(_union_members(node(obj)))

    def resolve(self):
        """(component, structure-form integral, half-p1 integral) per
        component."""
        return [(c, eta_integral(c.m3, c.eta, c.refinement),
                 half_p1_integral(c.w4, c.nabla, c.glue))
                for c in self.components]


def _union_members(doc):
    """The component nodes of a scene, unions flattened in order."""
    members, todo = [], [doc]
    while todo:
        scene = todo.pop()
        if scene.has("union"):
            todo.extend(reversed(scene.field("union").list()))
        else:
            members.append(scene)
    return members


# -- 1d scenes: circle with structure lifts and bounding surfaces ----------

class SuBounding:
    """A bounding surface datum: kind, boundary length and holonomy, and
    its total lifted curvature."""

    def __init__(self, kind, k, holonomy, curvature, label):
        self.kind = kind
        self.k = int(k)
        self.holonomy = wrap_unit(holonomy)
        self.curvature = float(curvature)
        self.label = label


def disk_bounding(lifts, extra_lift=0, where="extra_lift"):
    """Single-face disk carrying the given boundary values.

    A raw-connection bounding (not tangent-type): its curvature is the
    principal log of the boundary product plus an integer lift, named
    `where` in faults.
    """
    extra_lift = as_float_exact_int(extra_lift, where)
    total = sum_in_order(wrap_unit(a) for a in lifts)
    return SuBounding("connection", len(lifts), wrap_unit(total),
                      float(extra_lift) + wrap_half(total), "disk")


def tangent_bounding(mesh, puncture, jitter_rng=None):
    """Tangent-type bounding surface: a punctured metric surface.

    `mesh` is a builder name, whose complex and puncture stars are shared
    by every call in the process, or a CellComplex with lengths.  Jitter,
    if requested, perturbs every length except those of the triangles at
    the puncture, so the boundary circle is untouched; the jittered copy
    shares the incidence of `mesh`.
    """
    from ..discrete import surfaces as _surf
    surface = _surf.build_mesh(mesh) if isinstance(mesh, str) else mesh
    if jitter_rng is not None:
        frozen = _surf.ring_triangle_edges(surface, puncture)
        surface = _surf.jittered_lengths(surface, jitter_rng,
                                         frozen_edges=frozen)
    bundle = _surf.tangent_connection(surface)
    punct = bundle.punctured(puncture)
    return SuBounding("tangent", punct.boundary_length(),
                      punct.boundary_holonomy(), punct.total_curvature(),
                      f"{surface.name}@{puncture}")


class SuScene:
    """A circle scene: per-edge structure lifts plus bounding surfaces.

    The circle's transport values are exp(2 pi i lift); every bounding
    surface must restrict to them on its boundary (same length, same
    holonomy up to `SU_TOLERANCE`).  The constructor checks each one,
    naming bounding i `where[i]`, or `boundings[i]` by default.
    """

    def __init__(self, lifts, boundings, where=None):
        if not boundings:
            raise IncompatibleScene("scene needs at least one bounding")
        self.lifts = [float(a) for a in lifts]
        self.boundings = list(boundings)
        n, hol = len(self.lifts), wrap_unit(self.sum_lifts())
        for i, b in enumerate(self.boundings):
            if b.k != n or not circle_distance(b.holonomy, hol) <= (
                    SU_TOLERANCE):
                raise IncompatibleScene(
                    f"{where[i] if where else f'boundings[{i}]'}: expected "
                    f"boundary length {n} and holonomy {hol!r}, got "
                    f"boundary length {b.k} and holonomy {b.holonomy!r} "
                    f"({b.label})")

    @classmethod
    def from_primary(cls, primary, extra=()):
        """Canonical scene of a tangent bounding: constant lifts h/k."""
        return cls([primary.holonomy / primary.k] * primary.k,
                   [primary, *extra])

    def sum_lifts(self):
        return sum_in_order(self.lifts)

    def shifted(self, edge, k):
        """Shift one structure lift by an integer (the torsor action)."""
        return SuScene(_shifted_lifts(self.lifts, edge, k, "edge",
                                      "lift shift"), self.boundings)

    @classmethod
    def from_json(cls, obj):
        """The scene of an {"su": {...}} record, built once: the canonical
        lifts of its primary bounding moved by its lift shifts, with all
        its boundings."""
        spec = node(obj).field("su")
        primary = _read_tangent(spec.field("primary"))
        lifts = [primary.holonomy / primary.k] * primary.k
        boundings, where = [primary], [spec.field("primary").path]
        for b in spec.field("boundings", []).list():
            kind = b.field("kind", "tangent").str(("disk", "tangent"))
            if kind == "disk":
                lift = b.field("lift", 0)
                boundings.append(disk_bounding(lifts, lift.int(),
                                               where=lift.path))
            else:
                boundings.append(_read_tangent(b))
            where.append(b.path)
        for pair in spec.field("lift_shifts", []).list():
            edge, shift = pair.list(2)
            lifts = _shifted_lifts(lifts, edge.int(), shift.int(), edge.path,
                                   shift.path)
        return cls(lifts, boundings, where)


def _shifted_lifts(lifts, edge, k, edge_where, k_where):
    """`lifts` with lift `edge` shifted by the integer `k`, each named by
    its `where` in faults.  A shift whose sum rounds the lift by more
    than SHIFT_ROUNDING is refused: it would move the lift's fraction."""
    edge = as_int(edge, edge_where)
    if not 0 <= edge < len(lifts):
        raise ValueError(f"{edge_where}: expected an edge in "
                         f"0..{len(lifts) - 1}, got {edge}")
    k = as_float_exact_int(k, k_where)
    lifts = list(lifts)
    lift = lifts[edge]
    lifts[edge] = lift + k
    rounding = lifts[edge] - k - lift   # the sum's rounding error
    if not abs(rounding) <= SHIFT_ROUNDING:
        raise ValueError(f"{k_where}: expected a shift that keeps the "
                         f"fraction of lift {edge} ({lift!r}), got {k}, "
                         f"which rounds it by {rounding!r}")
    return lifts


def _read_tangent(spec):
    """The tangent bounding of a {"mesh", "puncture"} block."""
    from ..discrete import surfaces as _surf
    surface = _surf.build_mesh(
        spec.field("mesh").str(sorted(_surf.MESH_BUILDERS)))
    puncture = spec.field("puncture", 0).int(0, surface.n_cells[0] - 1)
    return tangent_bounding(surface, puncture)


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


def random_su_scene(rng):
    """A random tangent-type scene: two bounding surfaces from one pool,
    with non-boundary lengths jittered."""
    pool = SU_POOLS[rng.randrange(len(SU_POOLS))]
    (mesh1, v1), (mesh2, v2) = rng.sample(pool, 2)
    primary = tangent_bounding(mesh1, v1, jitter_rng=rng)
    second = tangent_bounding(mesh2, v2, jitter_rng=rng)
    return SuScene.from_primary(primary, extra=[second])
