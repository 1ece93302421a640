"""The private constructors `CellComplex._derived` and
`GroupMorphism._derived` skip the checks their public constructors make,
so each is called only by the builders whose construction its docstring
proves valid.  No reader of outside input calls one: no `from_json`
reader and nothing in the CLI."""

import ast
import pathlib
import re

from abtqft import fgab
from abtqft.discrete import CellComplex

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "abtqft"
OWNERS = {"CellComplex": CellComplex, "GroupMorphism": fgab.GroupMorphism}

# (owner, file, enclosing function, builder named in the owner's docstring)
EXPECTED = {
    ("CellComplex", "discrete/complexes.py", "build_triangle_surface",
     "build_triangle_surface"),
    ("CellComplex", "discrete/surfaces.py", "jittered_lengths",
     "jittered_lengths"),
    ("CellComplex", "discrete/surfaces.py", "SurfaceTopology.dual_side",
     "dual_side"),
    ("GroupMorphism", "fgab.py", "kernel", "kernel"),
    ("GroupMorphism", "fgab.py", "image", "image"),
    ("GroupMorphism", "fgab.py", "PullbackResult.__init__", "difference"),
    ("GroupMorphism", "moncat.py", "HofibCat.__init__", "stacked"),
}


def _sites(tree):
    """[(owner or None, enclosing qualified name, builder, line)] of each
    mention of an attribute `_derived` or `__new__`.  The builder is the
    enclosing function's name, or in an `__init__` the attribute the
    result is assigned to."""
    found = []

    def visit(node, scope, target):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + [node.name]
        if isinstance(node, ast.Assign) and isinstance(
                node.targets[0], ast.Attribute):
            target = node.targets[0].attr
        if isinstance(node, ast.Attribute) and node.attr in ("_derived",
                                                             "__new__"):
            owner = getattr(node.value, "id", None)
            builder = target if scope[-1:] == ["__init__"] else scope[-1]
            found.append((owner, node.attr, ".".join(scope), builder,
                          node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, target)

    visit(tree, [], None)
    return found


def _all_sites():
    return [(str(path.relative_to(SRC)), *site)
            for path in sorted(SRC.rglob("*.py"))
            for site in _sites(ast.parse(path.read_text()))]


def test_private_constructors_only_in_their_builders():
    calls = {(owner, path, scope, builder)
             for path, owner, attr, scope, builder, _ in _all_sites()
             if attr == "_derived"}
    assert calls == EXPECTED
    for owner, _, _, builder in calls:
        doc = OWNERS[owner]._derived.__doc__
        assert re.search(rf"\b{re.escape(builder)}\b", doc), (owner, builder)


def test_new_only_inside_private_constructors():
    # `cls.__new__` builds an object past its checks: only `_derived` may
    assert {(path, scope) for path, _, attr, scope, _, _ in _all_sites()
            if attr == "__new__"} == {
        ("discrete/complexes.py", "CellComplex._derived"),
        ("fgab.py", "GroupMorphism._derived")}


def test_no_reader_reaches_a_private_constructor():
    for path, _, _, scope, _, line in _all_sites():
        assert path != "cli.py", line
        assert not any(part.endswith("from_json")
                       for part in scope.split(".")), (path, scope)


def test_finder_sees_each_site():
    source = ("class A:\n"
              "    def __init__(self):\n"
              "        self.m = B._derived(1)\n"
              "def from_json(obj):\n"
              "    return C.__new__(C)\n")
    assert _sites(ast.parse(source)) == [
        ("B", "_derived", "A.__init__", "m", 3),
        ("C", "__new__", "from_json", "from_json", 5)]
