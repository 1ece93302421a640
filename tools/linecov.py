"""Line coverage of `src/` by a pytest run, with the standard library only.

    python tools/linecov.py [PYTEST ARGS...]

Runs pytest in this process under `sys.settrace` and `threading.settrace`.
Python children count too: a `sitecustomize` module, put first on their
PYTHONPATH, runs them under the same tracer and writes their lines to a
scratch directory when they exit.  A line is executable when a code object
compiled from its file lists it in `co_lines()`.  Prints the executable
and the never-run lines of each module under `src/`, then the numbers of
the lines never run.  It is not part of the test suite: tracing makes a
run several times slower.

`tools/linecov_unrun.txt` lists the lines that stay unrun, each with its
reason, one `MODULE | SOURCE | REASON` a line, SOURCE being the line's
stripped text.  The exit status is 1 when a never-run line is not listed
there or a listed line runs (a stale entry), else pytest's.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import tempfile
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
UNRUN = os.path.join(ROOT, "tools", "linecov_unrun.txt")
CHILD = """import sys
sys.path.insert(0, {tools!r})
import linecov
sys.path.pop(0)
linecov.trace_child()
"""


def trace(prefix):
    """Start tracing every thread; the set of (file, line) run in files
    under `prefix`, which grows until `sys.settrace(None)`."""
    hits, keep = set(), {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in keep:
            keep[name] = os.path.realpath(name).startswith(prefix)
        return local if keep[name] else None

    threading.settrace(call)
    sys.settrace(call)
    return hits


def trace_child():
    """Trace this process and write its lines to LINECOV_DIR at exit."""
    hits = trace(os.environ["LINECOV_PREFIX"])

    def dump():
        sys.settrace(None)
        path = os.path.join(os.environ["LINECOV_DIR"], f"{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(sorted(hits), fh)

    atexit.register(dump)


def executable(source, path):
    """The lines of the module `source`, read from `path`, that its code
    objects list (a module's code starts at line 0; a function's own first
    line is its `def`, which the enclosing code runs)."""
    stack = [compile(source, path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        own = {line for _, _, line in code.co_lines() if line}
        if code.co_name != "<module>":
            own.discard(code.co_firstlineno)
        lines |= own
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def listed(path=UNRUN):
    """The (module, source) pairs of the list of lines that stay unrun;
    blank lines and `#` comments are skipped, and every entry needs a
    reason."""
    entries = set()
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            module, _, rest = line.partition(" | ")
            source, _, reason = rest.rpartition(" | ")
            if not (module and source and reason.strip()):
                raise ValueError(f"{path}:{n}: expected MODULE | SOURCE | "
                                 f"REASON, got {line!r}")
            entries.add((module, source))
    return entries


def main(pytest_args):
    package = os.path.join(os.path.realpath(SRC), "abtqft") + os.sep
    with tempfile.TemporaryDirectory() as scratch:
        with open(os.path.join(scratch, "sitecustomize.py"), "w") as fh:
            fh.write(CHILD.format(tools=os.path.dirname(__file__)))
        os.environ.update(
            LINECOV_DIR=scratch, LINECOV_PREFIX=package,
            PYTHONPATH=os.pathsep.join(
                [scratch, SRC] + [p for p in [os.environ.get("PYTHONPATH")]
                                  if p]))
        sys.path.insert(0, SRC)
        import pytest
        hits = trace(package)
        status = pytest.main(pytest_args)
        sys.settrace(None)
        threading.settrace(None)
        children = [name for name in os.listdir(scratch)
                    if name.endswith(".json")]
        for name in children:
            with open(os.path.join(scratch, name)) as fh:
                hits |= {tuple(hit) for hit in json.load(fh)}
    run = {}
    for name, line in hits:
        run.setdefault(os.path.realpath(name), set()).add(line)
    total = missed_total = 0
    report = []
    for folder, _, files in sorted(os.walk(package)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            lines = executable(source, path)
            missed = sorted(lines - run.get(path, set()))
            total += len(lines)
            missed_total += len(missed)
            text = source.splitlines()
            report.append((os.path.relpath(path, SRC), len(lines),
                           [(line, text[line - 1].strip()) for line in missed]))
    print(f"\n{len(children)} child processes traced; pytest exit {status}")
    print(f"{'module':40} {'lines':>6} {'missed':>6}")
    for path, n, missed in report:
        print(f"{path:40} {n:6} {len(missed):6}")
    print(f"{'total':40} {total:6} {missed_total:6}")
    for path, _, missed in report:
        if missed:
            print(f"{path}: {', '.join(str(line) for line, _ in missed)}")
    keys = {(path, source) for path, _, missed in report
            for _, source in missed}
    entries = listed()
    unlisted = sorted(keys - entries)
    stale = sorted(entries - keys)
    for path, source in unlisted:
        print(f"not run and not listed: {path} | {source}")
    for path, source in stale:
        print(f"listed but run: {path} | {source}")
    print(f"{len(entries)} listed lines; {len(unlisted)} unlisted, "
          f"{len(stale)} stale")
    return status or int(bool(unlisted or stale))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
