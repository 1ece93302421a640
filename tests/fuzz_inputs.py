"""Structural fuzz of the JSON readers, through the CLI in process.

Each node of each sample document (descending into the first three items
of every list) is replaced in turn by a value of another shape, and the
verb that reads the document is run on the result.  Every run must exit
0, exit 1 with a computation error, or exit 2 with a message that names
the JSON path of a field (or is one of the faults that are not about a
document's shape, listed in `NON_SHAPE`); no message may carry Python's
own type-error text.

`tests/test_fuzz_inputs.py` runs a seeded subset.  The full sweep:

    PYTHONPATH=src python tests/fuzz_inputs.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import pathlib
import random
import re
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
REPLACEMENTS = [None, True, "x", 3, -1, 1.5, float("nan"), [], {}, [1],
                10**400]
DOC = "DOC"

# (sample document, verb run on it, DOC standing for the mutated copy)
DOCUMENTS = [
    ("matrix.json", ["group", "smith", DOC]),
    ("times2.json", ["group", "pullback", DOC, "samples/times3.json"]),
    ("times3.json", ["cat", "hom", DOC, "0", "3", "--oracle"]),
    ("proj24.json", ["group", "kernel", DOC]),
    ("mirror24.json", ["cat", "xi", DOC, "--oracle"]),
    ("mesh_square.json", ["geo", "stokes", DOC, "samples/cochain1.json"]),
    ("cochain1.json", ["geo", "stokes", "samples/mesh_square.json", DOC]),
    ("conn_square.json", ["geo", "holonomy", "samples/mesh_square.json", DOC,
                          "--loop", "0,1,2,3"]),
    ("scene_s3.json", ["bnr", "psi", DOC, "--certify"]),
    ("scene_s3_k3.json", ["bnr", "psi", DOC]),
    ("scene_su.json", ["bnr", "su", DOC]),
]

TYPE_ERROR_TEXT = ("is not iterable", "has no len()", "argument must be",
                   "not subscriptable", "unhashable")
PATH = r"(\$|[A-Za-z_][\w-]*)(\.[\w-]+|\[\d+\])*"
# exit-2 faults of what a document says rather than of its shape
NON_SHAPE = ("expected exactly one ", "pullback needs two morphisms",
             "pullback of morphisms with different")


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value[:3]):
            yield from _paths(item, path + (i,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return doc


def cases():
    """Every (sample, argv, path, replacement) of the full sweep."""
    for name, argv in DOCUMENTS:
        doc = json.loads((SAMPLES / name).read_text())
        for path in _paths(doc):
            for value in REPLACEMENTS:
                yield name, argv, path, value


def run(case, workdir):
    """(exit code, stderr) of one case, run in process."""
    from abtqft.cli import main
    name, argv, path, value = case
    doc = json.loads((SAMPLES / name).read_text())
    target = pathlib.Path(workdir) / name
    target.write_text(json.dumps(_replaced(doc, path, value)))
    argv = [str(target) if a == DOC else str(ROOT / a) if a.startswith(
        "samples/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def fault(code, err):
    """Why the outcome of a run is not allowed, or None."""
    if any(text in err for text in TYPE_ERROR_TEXT):
        return "Python type-error text"
    if code == 0:
        return None
    if code == 1:
        return None if err.startswith("computation error: ") else "exit 1"
    if code != 2:
        return f"exit {code}"
    named = re.match(rf"input error: [^:]+: {PATH}: ", err)
    if named or any(text in err for text in NON_SHAPE):
        return None
    return "exit 2 names no JSON path"


def sweep(sample=None, seed=0):
    """[(case, code, stderr, fault)] of each faulty run of the sweep, or
    of `sample` cases drawn with `seed`, and the number of runs."""
    every = list(cases())
    chosen = every if sample is None else random.Random(seed).sample(
        every, sample)
    faults = []
    with tempfile.TemporaryDirectory() as workdir:
        for case in chosen:
            code, err = run(case, workdir)
            why = fault(code, err)
            if why:
                faults.append((case, code, err, why))
    return faults, len(chosen)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    faults, runs = sweep()
    for (name, _, path, value), code, err, why in faults:
        print(f"{why}: {name} {list(path)} = {value!r}: exit {code}: "
              f"{err.strip()}")
    print(f"{runs} runs, {len(faults)} faulty, "
          f"{time.perf_counter() - start:.1f} s")
    sys.exit(1 if faults else 0)
