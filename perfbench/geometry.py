"""The `geometry` workload: discrete geometry and the mod-2 pipeline.

Small ops are a random tangent-type su scene (two jittered boundings from
one of `SU_POOLS`, `su_psi` with its certificate, one integer lift shift)
or Stokes plus holonomy-curvature on a small triangulated grid.  Large
ops are one torus pipeline: build, tangent transport, Chern number,
punctured total curvature and boundary holonomy.  Checks are untimed.
"""

from __future__ import annotations

from abtqft.analytic import circle_distance
from abtqft.discrete import (Cochain, LatticeConnection, check_stokes,
                             holonomy_curvature_gap, tangent_connection,
                             triangulated_grid)
from abtqft.discrete import surfaces
from abtqft.invariants import SuScene, su_psi, tangent_bounding
from abtqft.invariants.psi import SU_TOLERANCE
from abtqft.invariants.scenes import SU_POOLS

GAP_TOLERANCE = 1e-12
TORI = {"flat": surfaces.flat_torus, "equilateral": surfaces.equilateral_torus,
        "flipped": surfaces.flipped_torus}


def su_pools():
    return [[list(choice) for choice in pool] for pool in SU_POOLS]


class Replay:
    """Hands out pre-drawn jitter factors where the library wants an rng."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


def op_su(op):
    (m1, v1), (m2, v2) = op["first"], op["second"]
    primary = tangent_bounding(m1, v1, jitter_rng=Replay(op["jitter"][0]))
    second = tangent_bounding(m2, v2, jitter_rng=Replay(op["jitter"][1]))
    scene = SuScene.from_primary(primary, extra=[second])
    result = su_psi(scene)
    edge = int(op["shift_edge"] * len(scene.lifts))
    shifted = su_psi(scene.shifted(edge, op["shift"]))
    return {"raw": result.raw, "integer": result.integer_value,
            "residue": result.residue,
            "certificate": [[c["difference"], c["in_hypothesis"]]
                            for c in result.certificate],
            "shifted": [shifted.integer_value, shifted.residue]}


def op_stokes(op):
    W = triangulated_grid(op["nx"], op["ny"])
    lhs, rhs = check_stokes(W, Cochain(W, 1, op["omega"]))
    conn = LatticeConnection(W, op["turns"], op["lifts"])
    gap = holonomy_curvature_gap(conn, [(f, 1) for f in op["chain"]])
    return {"stokes": [lhs, rhs], "gap": gap}


def op_torus(op):
    mesh = TORI[op["torus"]](op["n"], op["n"])
    bundle = tangent_connection(mesh)
    chern = bundle.chern_number()
    punctured = bundle.punctured(op["puncture"])
    return {"cells": [mesh.n_cells[k] for k in range(3)], "chern": chern,
            "curvature": punctured.total_curvature(),
            "holonomy": punctured.boundary_holonomy()}


EXECUTE = {"su": op_su, "stokes": op_stokes, "torus": op_torus}


def summary(op, out):
    return out


def check(op, out):
    """None if the output is right, else what is wrong (untimed)."""
    kind = op["kind"]
    if kind == "su":
        if abs(out["raw"] - out["integer"]) > SU_TOLERANCE:
            return f"su value {out['raw']} is not integral"
        if out["residue"] != out["integer"] % 2:
            return "su residue is not the integer mod 2"
        if any(diff % 2 for diff, _ in out["certificate"]):
            return f"odd bounding difference in {out['certificate']}"
        k = op["shift"]
        if out["shifted"] != [out["integer"] - k, (out["integer"] - k) % 2]:
            return f"lift shift by {k} gave {out['shifted']}"
        return None
    if kind == "stokes":
        lhs, rhs = out["stokes"]
        if abs(lhs - rhs) > GAP_TOLERANCE:
            return f"stokes gap {abs(lhs - rhs)}"
        if out["gap"] > GAP_TOLERANCE:
            return f"holonomy-curvature gap {out['gap']}"
        return None
    V, E, F = out["cells"]
    if out["chern"] != V - E + F:
        return f"chern number {out['chern']} != Euler characteristic {V - E + F}"
    gap = circle_distance(out["curvature"], out["holonomy"])
    if gap > GAP_TOLERANCE:
        return f"punctured holonomy gap {gap}"
    return None

