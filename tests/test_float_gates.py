"""Each decision at the input and float boundaries has one home in
`src/`: a float is taken as an integer only by `analytic.nearest_integer`,
called once per rounded value at pinned sites, an integer is bounded to
what a float holds exactly only by `analytic.as_float_exact_int`, reals
are tested for finiteness only by `complexes.as_reals` (input) and
`analytic.wrap_unit` (turns), and only the reader asks whether a JSON
value is an object or a list.  Floats are summed in order only by
`analytic.sum_in_order`: builtin `sum` compensates float sums from
CPython 3.12 on, so the same source would give other bits there."""

import ast
import collections
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "abtqft"


def _uses(tree, wanted, call=False, of=None):
    """[(enclosing function, line)] of each call of `wanted` (as a name or
    an attribute) when `call`, or of each mention of the name `wanted`
    otherwise, or of each node for which a callable `wanted` is true;
    with `of`, only the calls whose arguments after the first mention the
    name `of`.  A method is named `Class.method`."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            function = f"{function}.{node.name}" if function else node.name
        if callable(wanted):
            hit = wanted(node)
        elif call:
            hit = (isinstance(node, ast.Call)
                   and getattr(node.func, "id",
                               getattr(node.func, "attr", None)) == wanted
                   and (of is None or any(
                       getattr(name, "id", None) == of
                       for arg in node.args[1:] for name in ast.walk(arg))))
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


def _sites(wanted, call=False, of=None):
    """How often each (file, enclosing function) in `src/` uses `wanted`."""
    return collections.Counter(
        (str(path.relative_to(SRC)), function)
        for path in sorted(SRC.rglob("*.py"))
        for function, _ in _uses(ast.parse(path.read_text()), wanted, call,
                                 of))


def _homes(wanted, call=False, of=None):
    return set(_sites(wanted, call, of))


def test_round_only_in_nearest_integer():
    assert _homes("round", call=True) == {("analytic.py", "nearest_integer")}


def _float_exact_bound(node):
    """Whether `node` spells 2**53: as a power, a shift or its value."""
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float) and node.value == 2**53
    return isinstance(node, ast.BinOp) and (
        (type(node.op), getattr(node.left, "value", None),
         getattr(node.right, "value", None)) in {(ast.Pow, 2, 53),
                                                 (ast.LShift, 1, 53)})


def test_float_exact_bound_only_in_its_gate():
    assert _homes(_float_exact_bound) == {("analytic.py",
                                           "as_float_exact_int")}


def test_nearest_integer_call_sites():
    # one gate per rounded value: each Xi of `psi` (component and
    # alternative) and of `su_psi`, each vertex lift of the tangent
    # bundle and the Chern number; an invariant result rounds nothing
    assert _sites("nearest_integer", call=True) == {
        ("invariants/psi.py", "psi"): 2,
        ("invariants/psi.py", "su_psi"): 1,
        ("discrete/surfaces.py", "TangentBundle.__init__"): 1,
        ("discrete/connections.py", "chern_number"): 1}


def test_isfinite_only_in_the_real_gates():
    assert _homes("isfinite") == {("discrete/complexes.py", "as_reals"),
                                  ("analytic.py", "wrap_unit")}


def _builtin_sum(node):
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == (
        "sum")


def test_no_builtin_sum_in_the_float_modules_but_of_ints():
    # an integer sum is exact on every CPython; it says so on its line
    paths = [SRC / "analytic.py", *sorted((SRC / "discrete").glob("*.py")),
             *sorted((SRC / "invariants").glob("*.py"))]
    unmarked = [(path.name, line) for path in paths
                for text in (path.read_text(),)
                for _, line in _uses(ast.parse(text), _builtin_sum)
                if "# int sum" not in text.splitlines()[line - 1]]
    assert not unmarked


def test_json_shapes_only_in_the_reader():
    # every other module reads a document through `reader.Node`'s steps
    for kind in ("dict", "list"):
        homes = _homes("isinstance", call=True, of=kind)
        assert homes and {path for path, _ in homes} == {"reader.py"}, kind


def test_finder_sees_each_spelling():
    source = ("import math\n"
              "from numpy import isfinite as fin\n"
              "def f(x):\n"
              "    return round(x), x.round(), math.isfinite(x)\n"
              "class C:\n"
              "    def m(self, round=round):\n"
              "        return round(self)\n")
    tree = ast.parse(source)
    assert _uses(tree, "round", call=True) == [("f", 4), ("f", 4),
                                               ("C.m", 7)]
    assert _uses(tree, "isfinite") == [(None, 2), ("f", 4)]
    source = ("def g(x):\n"
              "    return isinstance(x, dict), isinstance(x, (int, list)),"
              " isinstance(x, list | dict), isinstance(list, int)\n")
    tree = ast.parse(source)
    assert _uses(tree, "isinstance", call=True, of="dict") == [("g", 2),
                                                               ("g", 2)]
    assert _uses(tree, "isinstance", call=True, of="list") == [("g", 2),
                                                               ("g", 2)]
    source = ("BOUND = 2**53\n"
              "def h(x):\n"
              "    return -2 ** 53 <= x < 1 << 53, x == 9007199254740992.0,"
              " x < 2**52, '2**53'\n")
    assert _uses(ast.parse(source), _float_exact_bound) == [
        (None, 1), ("h", 3), ("h", 3), ("h", 3)]
    source = ("def s(x):\n"
              "    return sum(x), np.sum(x), x.sum(), sum_in_order(x)\n")
    assert _uses(ast.parse(source), _builtin_sum) == [("s", 2)]
