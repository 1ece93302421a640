"""Every module-level import in `src/` is used by its module.

Package `__init__.py` files are skipped: their imports are the package's
public names.  A name counts as used when the module reads it anywhere,
annotations included.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "abtqft"


def _imported(tree):
    """{bound name: line} of the module-level imports of `tree`."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_no_unused_imports_in_src():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += [f"{path.relative_to(SRC)}:{line}: {name}"
                  for name, line in _imported(tree).items()
                  if name not in used]
    assert not found, f"unused imports: {found}"
