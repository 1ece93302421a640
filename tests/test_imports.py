"""Each CLI process imports only the layers its verb runs, and the lazy
package names resolve to the objects their submodules define.

Every check runs in a fresh interpreter, since what a process has
imported is the point.
"""

import ast
import glob
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src")

# run the CLI, then list every loaded module
FOOTPRINT = """
import json, sys
from abtqft.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def _python(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_by(*argv):
    """The modules loaded once `abtqft <argv>` has run; it must exit 0."""
    code, modules = json.loads(_python("-c", FOOTPRINT, *argv).splitlines()[-1])
    assert code == 0
    return set(modules)


ALGEBRA_ONLY = {"abtqft.discrete", "abtqft.invariants", "abtqft.acceptance"}
GROUP_LAYER = {"abtqft.moncat", "abtqft.fgab"}
GEOMETRY_ONLY = {"abtqft.invariants"} | GROUP_LAYER


@pytest.mark.parametrize("argv, absent", [
    (["group", "smith", "samples/matrix.json"],
     ALGEBRA_ONLY | {"abtqft.testing"}),
    (["cat", "hom", "samples/times2.json", "0", "4"], ALGEBRA_ONLY),
    (["cat", "xi", "samples/mirror24.json", "--oracle"], ALGEBRA_ONLY),
    (["geo", "stokes", "samples/mesh_square.json", "samples/cochain1.json"],
     GEOMETRY_ONLY),
    (["geo", "chern", "builtin:icosahedron", "tangent"], GEOMETRY_ONLY),
    (["geo", "holonomy", "samples/mesh_square.json",
      "samples/conn_square.json", "--loop", "0,1,2,3"], GEOMETRY_ONLY),
    (["bnr", "table", "validate"], {"numpy"}),
    (["bnr", "psi", "samples/scene_s3.json", "--certify"],
     GROUP_LAYER | {"numpy", "abtqft.discrete"}),
    (["bnr", "psi", "samples/scene_s3_k3.json"],
     GROUP_LAYER | {"abtqft.discrete"}),
    (["bnr", "su", "samples/scene_su.json"], GROUP_LAYER),
])
def test_verb_imports_only_its_layers(argv, absent):
    assert not loaded_by(*argv) & absent


# the group and cat commands of the benchmark's CLI session: its README
# commands on `samples/`, then its seeded kinds on files written here
SEEDED_FILES = {
    "kernel.json": {"matrix": [[2, -3, 1], [4, 0, -6]],
                    "source": {"generators": 3, "relations": []},
                    "target": {"generators": 2, "relations": []}},
    "hom.json": {"matrix": [[2]],
                 "source": {"generators": 1, "relations": [[4]]},
                 "target": {"generators": 1, "relations": [[8]]}},
}


@pytest.mark.parametrize("argv", [
    ["group", "smith", "samples/matrix.json"],
    ["group", "kernel", "samples/proj24.json"],
    ["group", "pullback", "samples/times2.json", "samples/times3.json"],
    ["group", "iso", "samples/times2.json"],
    ["group", "solve", "samples/proj24.json", "7"],
    ["cat", "hom", "samples/times2.json", "0", "4"],
    ["cat", "hofiber", "samples/mirror24.json"],
    ["cat", "xi", "samples/mirror24.json", "--oracle"],
    ["--record", "{tmp}/r.json", "group", "smith", "samples/matrix.json"],
    ["group", "kernel", "{tmp}/kernel.json"],
    ["cat", "hom", "{tmp}/hom.json", "1", "3", "--oracle"],
    ["--format", "json", "group", "solve", "samples/proj24.json", "7"],
], ids=lambda argv: " ".join(map(os.path.basename, argv)))
def test_group_and_cat_verbs_load_no_numpy(tmp_path, argv):
    for name, doc in SEEDED_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    modules = loaded_by(*(a.format(tmp=tmp_path) for a in argv))
    assert "abtqft.intmat" in modules and "numpy" not in modules


# the surface path of `bnr su` and `geo chern`: a tangent bundle from a
# builtin mesh or a mesh file, and a connection file
@pytest.mark.parametrize("argv", [
    ["bnr", "su", "samples/scene_su.json"],
    ["--format", "json", "bnr", "su", "samples/scene_su.json"],
    ["geo", "chern", "builtin:icosahedron", "tangent"],
    ["geo", "chern", "builtin:genus2", "tangent"],
    ["geo", "chern", "{tmp}/mesh.json", "tangent"],
    ["geo", "chern", "{tmp}/mesh.json", "{tmp}/conn.json"],
], ids=lambda argv: " ".join(map(os.path.basename, argv)))
def test_su_and_chern_verbs_load_no_numpy(tmp_path, argv):
    from abtqft.discrete import icosahedron
    (tmp_path / "mesh.json").write_text(json.dumps(icosahedron().to_json()))
    (tmp_path / "conn.json").write_text(json.dumps(
        {"edge_phases": [0.25] * 30, "face_lifts": [2] + [0] * 19}))
    modules = loaded_by(*(a.format(tmp=tmp_path) for a in argv))
    assert "abtqft.discrete.connections" in modules
    assert "numpy" not in modules


def _run_on_import(node):
    """The nodes under `node` that run when its module is imported: all
    but the bodies of functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
            yield child
            yield from _run_on_import(child)


def _imports_numpy(node):
    if isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    elif isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    else:
        return False
    return any(name.split(".")[0] == "numpy" for name in names)


def _parse(module):
    path = os.path.join(SRC, "abtqft", f"{module}.py")
    with open(path) as fh:
        return ast.parse(fh.read(), path)


SURFACE_MODULES = ["discrete/__init__", "discrete/complexes",
                   "discrete/connections", "discrete/surfaces",
                   "discrete/cochains", "invariants/scenes"]


@pytest.mark.parametrize("module", ["intmat", "fgab", "moncat", "testing",
                                    *SURFACE_MODULES])
def test_exact_layers_import_numpy_only_inside_functions(module):
    # the array results of `intmat` and the surface layer's BLAS
    # reductions import numpy when first called
    for node in _run_on_import(_parse(module)):
        assert not _imports_numpy(node), (module, node.lineno)


def test_only_the_blas_reductions_import_numpy():
    # their bits depend on the BLAS kernel, so they stay on numpy;
    # `coboundary` reaches it through `boundary_matrix`
    found = {(module, fn.name) for module in SURFACE_MODULES
             for fn in ast.walk(_parse(module))
             if isinstance(fn, ast.FunctionDef)
             and any(map(_imports_numpy, ast.walk(fn)))}
    assert found == {("discrete/complexes", "boundary_matrix"),
                     ("discrete/connections", "holonomy"),
                     ("discrete/cochains", "integrate")}


@pytest.mark.parametrize("layer", ["invariants", "discrete"])
def test_numeric_layers_never_import_the_group_layer(layer):
    # at module level or inside a function: either one loads it
    for path in sorted(glob.glob(os.path.join(SRC, "abtqft", layer, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            parts = {p for name in names for p in name.split(".")}
            assert not parts & {"fgab", "moncat"}, (path, node.lineno)


def test_record_does_not_load_the_invariants(tmp_path):
    modules = loaded_by("--record", str(tmp_path / "r.json"),
                        "group", "smith", "samples/matrix.json")
    assert "abtqft.invariants" not in modules


def test_subpackages_resolve_after_bare_import():
    names = ["analytic", "fgab", "intmat", "moncat", "discrete", "invariants"]
    probe = f"""
import sys
import abtqft
print(sorted(m for m in sys.modules if m.startswith("abtqft.")))
for name in {names!r}:
    assert getattr(abtqft, name) is sys.modules["abtqft." + name], name
print("ok")
"""
    before, ok = _python("-c", probe).splitlines()
    assert before == "[]" and ok == "ok"


@pytest.mark.parametrize("first", [
    "from abtqft.invariants import psi",
    "from abtqft.invariants import su_psi",
    "import abtqft.invariants.psi",
    "from abtqft import acceptance",
])
def test_psi_is_the_function_whatever_loads_first(first):
    probe = f"""
{first}
import types
from abtqft.invariants import psi
assert isinstance(psi, types.FunctionType), psi
from abtqft.invariants import psi as again
import abtqft.invariants.psi
from abtqft.invariants import psi as after
import sys
module = sys.modules["abtqft.invariants.psi"]
assert psi is again is after is module.psi, (psi, again, after)
assert isinstance(module, types.ModuleType)
print("ok")
"""
    assert _python("-c", probe).split() == ["ok"]


# the names the eager `invariants/__init__.py` exported, by submodule
OLD_EXPORTS = {
    "chern_simons": ["cs_su2_quadrature", "sphere_volume_quadrature"],
    "table": ["Closed4Entry", "validate_table", "shipped_table",
              "spin_entries"],
    "scenes": ["BnrScene", "SuScene", "SuBounding", "eta_integral",
               "half_p1_integral", "tangent_bounding", "random_su_scene",
               "ProviderError", "IncompatibleScene", "SIGN_CONVENTION"],
    "psi": ["psi", "su_psi", "InvariantResult", "NonIntegralInvariant",
            "ParityCertificateError", "PSI_TOLERANCE", "SU_TOLERANCE"],
}


def test_old_invariant_names_resolve_to_their_submodules():
    import importlib

    import abtqft
    import abtqft.analytic
    import abtqft.invariants as I
    # names that moved out of the invariants package, to their new homes
    moved = {"SIGN_CONVENTION": abtqft,
             "NonIntegralInvariant": abtqft.analytic}
    for module, names in OLD_EXPORTS.items():
        sub = importlib.import_module(f"abtqft.invariants.{module}")
        for name in names:
            owner = moved.get(name, sub)
            assert getattr(I, name) is getattr(owner, name), (module, name)
    with pytest.raises(AttributeError):
        I.no_such_name
