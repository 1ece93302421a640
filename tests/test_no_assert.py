"""The library's checks must survive `python -O`, so `src/` holds no
bare `assert` statement: each check raises a typed exception instead."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "abtqft"


def test_no_assert_statements_in_src():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"bare assert statements: {found}"
