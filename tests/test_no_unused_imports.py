"""Every import in `src/` is used where it is made.

A module-level import must be read somewhere in its module; package
`__init__.py` files are skipped there, since their imports are the
package's public names.  An import made inside a function must be read
inside that function (nested functions included).  A name counts as
used when the code reads it, annotations included.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "abtqft"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound(node):
    """{bound name: line} of one import statement (none for __future__)."""
    if isinstance(node, ast.Import):
        return {alias.asname or alias.name.split(".")[0]: node.lineno
                for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return {alias.asname or alias.name: node.lineno
                for alias in node.names}
    return {}


def _own_imports(function):
    """{bound name: line} of the imports in `function`'s own body, not
    in the functions or classes defined inside it."""
    names, stack = {}, list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        names.update(_bound(node))
        if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))
    return names


def unused_imports(source, package_init=False):
    """[(line, name)] of the imports in `source` that are never read."""
    tree = ast.parse(source)
    scopes = [(node, _own_imports(node)) for node in ast.walk(tree)
              if isinstance(node, FUNCTIONS)]
    if not package_init:
        scopes.append((tree, {name: line for node in tree.body
                              for name, line in _bound(node).items()}))
    found = []
    for scope, imported in scopes:
        read = {node.id for node in ast.walk(scope)
                if isinstance(node, ast.Name)}
        found += [(line, name) for name, line in imported.items()
                  if name not in read]
    return sorted(found)


def test_no_unused_imports_in_src():
    found = [f"{path.relative_to(SRC)}:{line}: {name}"
             for path in sorted(SRC.rglob("*.py"))
             for line, name in unused_imports(
                 path.read_text(), path.name == "__init__.py")]
    assert not found, f"unused imports: {found}"


def test_function_imports_must_be_read_in_their_function():
    source = ("import os\n"
              "def f():\n"
              "    import json\n"
              "    from math import pi\n"
              "    def inner():\n"
              "        return pi\n"
              "    return os.sep, inner\n"
              "def g():\n"
              "    return json.dumps(1)\n")
    # `json` is read only in g, outside the function that imports it;
    # `pi` is read by a function nested in the one that imports it
    assert unused_imports(source) == [(3, "json")]
    assert unused_imports("import os\n", package_init=True) == []
