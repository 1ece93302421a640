"""The library names the benchmark under perfbench/ patches, imports and
calls exist in src/.

The tracer wraps library functions named in its SPANS and COUNTED tables,
and the workloads import and call the library directly.  A change that
deletes or renames one of those names would otherwise show only in the
slow benchmark run.  The benchmark's files are read with `ast`; none of
them is imported.
"""

import ast
import importlib
import inspect
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
SOURCES = sorted(f for f in os.listdir(PERFBENCH)
                 if f.endswith(".py") and not f.startswith("test_"))


def _tree(name):
    with open(os.path.join(PERFBENCH, name)) as fh:
        return ast.parse(fh.read(), name)


def _table(name):
    """The rows of the list assigned to `name` in tracing.py."""
    for node in _tree("tracing.py").body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == name):
            return ast.literal_eval(node.value)
    raise LookupError(f"tracing.py assigns no {name}")


@pytest.mark.parametrize("table", ["SPANS", "COUNTED"])
def test_traced_names_resolve(table):
    rows = _table(table)
    assert rows
    for _, module, attr in rows:
        owner = importlib.import_module(module)
        if "." in attr:
            # a method is patched in its class's own namespace
            cls_name, attr = attr.split(".")
            owner = vars(owner)[cls_name]
            assert attr in vars(owner), (module, cls_name, attr)
        assert callable(getattr(owner, attr)), (module, attr)


def _imported(tree):
    """{local name: library object} of the file's abtqft imports."""
    names = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "abtqft"):
            for alias in node.names:
                try:
                    value = importlib.import_module(
                        f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    value = getattr(importlib.import_module(node.module),
                                    alias.name)
                names[alias.asname or alias.name] = value
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "abtqft":
                    module = importlib.import_module(alias.name)
                    names[alias.asname or "abtqft"] = (
                        module if alias.asname
                        else importlib.import_module("abtqft"))
    return names


def _resolve(node, names, where):
    """The library object the expression `node` names, or None."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, names, where)
        if owner is not None:
            assert hasattr(owner, node.attr), \
                f"{where}:{node.lineno}: {ast.unparse(node)} is gone"
            return getattr(owner, node.attr)
    return None


@pytest.mark.parametrize("source", SOURCES)
def test_workload_names_and_calls_resolve(source):
    tree = _tree(source)
    names = _imported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            _resolve(node, names, source)
        if not isinstance(node, ast.Call):
            continue
        fn = _resolve(node.func, names, source)
        if (fn is None or any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords)):
            continue
        # the call binds: same positional count and keyword names
        inspect.signature(fn).bind(*node.args,
                                   **{k.arg: k for k in node.keywords})
