"""Every public module-level function and class in `src/` has a caller.

A public name (no leading underscore) defined at the top level of a
module under `src/abtqft` must be named somewhere other than its own
`def` or `class` block and a package `__init__.py` re-export: in another
part of `src/`, or in a `perfbench/*.py` file that is not a test.  A
name read only by tests belongs with the tests (a `tests/` helper module
or a public path the tests can ask instead).  A name counts as named
when the code reads it as a variable, reads it as an attribute or
imports it; strings and comments do not count.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "abtqft"


def _callers():
    """The files whose code may make a public name production code."""
    return sorted(SRC.rglob("*.py")) + sorted(
        path for path in (ROOT / "perfbench").glob("*.py")
        if not path.name.startswith("test_"))


def named(trees):
    """{name: [(path, line)]} of every read of a name in `trees`, a
    {path: ast} map; the imports of a package `__init__.py` are its
    re-exports and are left out."""
    found = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif (isinstance(node, ast.ImportFrom)
                  and path.name != "__init__.py"):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                found.setdefault(name, []).append((path, node.lineno))
    return found


def unreached(trees, defining):
    """[(path, line, name)] of the public top-level functions and classes
    of the modules `defining` that `trees` never name outside their own
    block."""
    reads = named(trees)
    missing = []
    for path in defining:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            first = min([d.lineno for d in node.decorator_list]
                        + [node.lineno])
            if not any(where != path or not first <= line <= node.end_lineno
                       for where, line in reads.get(node.name, ())):
                missing.append((path, node.lineno, node.name))
    return missing


def test_every_public_name_in_src_has_a_production_caller():
    trees = {path: ast.parse(path.read_text()) for path in _callers()}
    missing = [f"{path.relative_to(ROOT)}:{line}: {name}"
               for path, line, name in unreached(
                   trees, sorted(SRC.rglob("*.py")))]
    assert not missing, f"public names no production code reads: {missing}"


def test_own_block_and_reexports_do_not_count(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    init, module = package / "__init__.py", package / "mod.py"
    sources = {
        init: "from .mod import exported, used, recursive\n",
        module: ("def exported():\n"
                 "    return 1\n"
                 "def recursive(n):\n"
                 "    return recursive(n - 1) if n else 0\n"
                 "def used():\n"
                 "    return helper.value, Thing()\n"
                 "class Thing:\n"
                 "    pass\n"
                 "def _private():\n"
                 "    return 'exported'\n"),
    }
    trees = {path: ast.parse(text) for path, text in sources.items()}
    # `used` is read by the package re-export only; `Thing` by `used`
    assert [name for _, _, name in unreached(trees, [module])] == [
        "exported", "recursive", "used"]
