"""The float bits of the surface layer, as `float.hex` strings.

    PYTHONPATH=src python tests/surface_bits.py > tests/surface_bits.json

writes the record that `test_fast_paths.py` recomputes and compares:
- per builtin mesh, its tangent bundle's angle defects, dual edge turns
  and vertex lifts, in full;
- per `SU_POOLS` (mesh, puncture), a sha256 of the holonomy and curvature
  of its tangent bounding under each of 20 seeded jitters;
- the `su_psi` raw value of `random_su_scene(random.Random(i))`, i < 100.
"""

import hashlib
import json
import random

from abtqft.discrete import surfaces as S
from abtqft.invariants import su_psi, tangent_bounding
from abtqft.invariants.scenes import SU_POOLS, random_su_scene

JITTERS = 20
SCENES = 100


def _hex(values):
    return [float(x).hex() for x in values]


def surface_bits():
    builtins = {name: S.build_mesh(name) for name in S.MESH_BUILDERS}
    meshes = {}
    for name, mesh in builtins.items():
        bundle = S.tangent_connection(mesh)
        conn = bundle.connection
        meshes[name] = {"defects": _hex(bundle.defects),
                        "turns": _hex(conn.edge_turns),
                        "lifts": [int(n) for n in conn.face_lifts]}
    boundings = {}
    for mesh, vertex in sorted({choice for pool in SU_POOLS
                                for choice in pool}):
        digest = hashlib.sha256()
        for seed in range(JITTERS):
            b = tangent_bounding(builtins[mesh], vertex,
                                 jitter_rng=random.Random(seed))
            digest.update(f"{b.holonomy.hex()} {b.curvature.hex()}\n".encode())
        boundings[f"{mesh}@{vertex}"] = digest.hexdigest()
    raws = _hex(su_psi(random_su_scene(random.Random(i))).raw
                for i in range(SCENES))
    return {"meshes": meshes, "boundings": boundings, "su_psi_raw": raws}


if __name__ == "__main__":
    print(json.dumps(surface_bits(), indent=1, sort_keys=True))
