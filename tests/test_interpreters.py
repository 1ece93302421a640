"""The numpy-free golden commands print the same bytes under every other
CPython >= 3.10 that pyenv has installed.

Text output must equal `perfbench/golden.json`; `--format json` output
must equal this interpreter's.  Builtin `sum` compensates float sums from
3.12 on, which is why `src/` sums floats with `analytic.sum_in_order`.
Interpreters are found with `pyenv versions --bare` and run as
`$(pyenv root)/versions/V/bin/python`, because pyenv's PATH shims run the
global version instead.  Without another interpreter the tests skip.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src")
with open(os.path.join(ROOT, "perfbench", "golden.json")) as _fh:
    GOLDEN = json.load(_fh)

# the golden commands that load numpy: the quadrature and the two BLAS
# reductions
NEEDS_NUMPY = {"bnr psi samples/scene_s3_k3.json --certify",
               "geo holonomy samples/mesh_square.json samples/conn_square.json"
               " --loop 0,1,2,3",
               "geo stokes samples/mesh_square.json samples/cochain1.json"}
COMMANDS = sorted(set(GOLDEN) - NEEDS_NUMPY)

# one process per interpreter: {format: {command: [exit code, stdout]}}
RUN = """
import contextlib, io, json, sys
from abtqft.cli import main
out = {}
for fmt in ("text", "json"):
    out[fmt] = {}
    for command in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            code = main(["--format", fmt, *command.split()])
        out[fmt][command] = [code, buf.getvalue()]
print(json.dumps(out))
"""


def _outputs(python):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([python, "-c", RUN, json.dumps(COMMANDS)], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _other_cpythons():
    """{version: path} of each CPython >= 3.10 but this one that pyenv
    has, or the reason there is none."""
    pyenv = shutil.which("pyenv")
    if pyenv is None:
        return "pyenv is not on PATH"
    root, bare = (subprocess.run([pyenv, *argv], capture_output=True,
                                 text=True, timeout=60).stdout
                  for argv in (["root"], ["versions", "--bare"]))
    found = {}
    for version in bare.split():
        parts = re.fullmatch(r"(\d+)\.(\d+)\.(\d+)", version)
        path = os.path.join(root.strip(), "versions", version, "bin", "python")
        if parts and (3, 10) <= tuple(map(int, parts.groups())) != (
                sys.version_info[:3]) and os.access(path, os.X_OK):
            found[version] = path
    return found or "pyenv has no other CPython >= 3.10"


@pytest.fixture(scope="module")
def outputs():
    """{version: outputs} of this interpreter ("this") and each other."""
    others = _other_cpythons()
    if isinstance(others, str):
        pytest.skip(others)
    return {"this": _outputs(sys.executable),
            **{version: _outputs(path) for version, path in others.items()}}


def test_numpy_free_golden_commands():
    assert len(COMMANDS) == 13 and NEEDS_NUMPY < set(GOLDEN)


def test_text_output_is_golden_on_every_cpython(outputs):
    want = {command: [0, GOLDEN[command]] for command in COMMANDS}
    for version, out in outputs.items():
        assert out["text"] == want, version


def test_json_output_is_the_same_on_every_cpython(outputs):
    for version, out in outputs.items():
        assert out["json"] == outputs["this"]["json"], version
