"""Run one traced `abtqft` command in a fresh interpreter.

    python3 perfbench/launcher.py SPANS_JSON OP_ID ARG...

Times `import numpy` and `import abtqft.cli`, installs the span wrappers
of tracing.py, calls `abtqft.cli.main(ARG...)` inside a `cli.main` span,
writes the spans to SPANS_JSON and exits with main's exit code.  Stdout
and stderr are the command's own, so they can be compared byte for byte
with an untraced `python -m abtqft.cli ARG...`.
"""

import sys
import time


def main():
    spans_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed on its own)
    t1 = time.perf_counter()
    import abtqft.cli
    t2 = time.perf_counter()
    from tracing import Tracer

    tracer = Tracer()
    tracer.op = op_id
    tracer.extra = {"import_numpy_s": t1 - t0, "import_abtqft_s": t2 - t1}
    tracer.install()
    try:
        code = tracer.wrap("cli.main", abtqft.cli.main)(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
