"""Each decision at the float boundary has one home in `src/`: a float
is taken as an integer only by `analytic.nearest_integer`, and reals are
tested for finiteness only by `complexes.as_reals` (input) and
`analytic.wrap_unit` (turns)."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "abtqft"


def _uses(tree, wanted):
    """[(enclosing function, line)] of each call of `round` (as a name or
    an attribute) when `wanted` is "round", or of each mention of the
    name `wanted` otherwise."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if wanted == "round":
            hit = (isinstance(node, ast.Call)
                   and getattr(node.func, "id",
                               getattr(node.func, "attr", None)) == "round")
        else:
            hit = (getattr(node, "id", None) == wanted
                   or getattr(node, "attr", None) == wanted
                   or isinstance(node, ast.alias) and wanted in (
                       node.name, node.asname))
        if hit:
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def _homes(wanted):
    return {(str(path.relative_to(SRC)), function)
            for path in sorted(SRC.rglob("*.py"))
            for function, _ in _uses(ast.parse(path.read_text()), wanted)}


def test_round_only_in_nearest_integer():
    assert _homes("round") == {("analytic.py", "nearest_integer")}


def test_isfinite_only_in_the_real_gates():
    assert _homes("isfinite") == {("discrete/complexes.py", "as_reals"),
                                  ("analytic.py", "wrap_unit")}


def test_finder_sees_each_spelling():
    source = ("import math\n"
              "from numpy import isfinite as fin\n"
              "def f(x):\n"
              "    return round(x), x.round(), math.isfinite(x)\n")
    tree = ast.parse(source)
    assert _uses(tree, "round") == [("f", 4), ("f", 4)]
    assert _uses(tree, "isfinite") == [(None, 2), ("f", 4)]
