"""Benchmark of abtqft: seeded `algebra`, `geometry` and `cli-session` runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src/`.
Each workload is a fixed batch of ops made from the seed, run as a closed
loop with one client (the next op starts when the previous one has
finished) from this single process.  Passes over the batch repeat for S
seconds, and each op's latency is its mean over the passes, in reference
seconds (see HostSpeed); ops run once per run (the acceptance suite) come
after.  Outputs are checked after the timed part, and the last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
op_p50_ms, op_tail_ms, ok_ratio, peak_rss_mb); with --trace 1 the
per-layer ones, from spans that tracing.py records around the library's
functions (written to .bench_work/spans-NAME-seedN.json).
"""

from __future__ import annotations

import os
import sys

# one BLAS / OpenMP thread for this process and every child, before numpy
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("algebra", "geometry", "cli-session")
LARGE_KINDS = {"algebra": {"large"}, "geometry": {"torus"},
               "cli-session": {"psi", "cs"}}
SETUP_REPEATS = 5
SETUP_REF_SAMPLES = 5
TAIL_BEYOND = 10
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "ok_ratio": "ratio", "peak_rss_mb": "MB"}


# -- workloads --------------------------------------------------------------

class InProcess:
    """An in-process workload: ops run as calls into the library.

    Every workload has `ops`, `batch` (indices of the ops each pass runs)
    and `once` (indices of ops run once per run, after the passes)."""

    def __init__(self, module, ops):
        self.module = module
        self.ops = ops
        self.batch = list(range(len(ops)))
        self.once = []

    def warm_up(self):
        """One op of each kind (the smallest sized one), untimed."""
        picked = {}
        for op in sorted(self.ops, key=lambda o: o.get("n", 0)):
            picked.setdefault(op["kind"], op)
        for op in picked.values():
            try:
                self.execute(op)
            except Exception:   # counted as a failure when it runs in a pass
                pass

    def execute(self, op):
        return self.module.EXECUTE[op["kind"]](op)

    def summary(self, op, out):
        return self.module.summary(op, out)

    def check(self, op, out, outputs):
        return self.module.check(op, out)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def start_trace(self, tracer):
        tracer.install()

    def stop_trace(self, tracer):
        tracer.uninstall()

    def python_start_s(self):
        return None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def build(name, seed, tiny, workdir):
    """Seeded inputs, set up and warmed up: everything before the first op."""
    import gen
    if name == "algebra":
        import algebra
        wl = InProcess(algebra, gen.algebra(seed, tiny))
    elif name == "geometry":
        import geometry
        wl = InProcess(geometry, gen.geometry(seed, geometry.su_pools(), tiny))
    else:
        import cli_session
        from abtqft.invariants.scenes import SU_POOLS
        wl = cli_session.CliSession(gen.cli_session(seed, SU_POOLS, tiny),
                                    ROOT, workdir, child_env())
    wl.warm_up()
    return wl


# -- host speed -------------------------------------------------------------
#
# A shared host's speed can drift by up to 2x over minutes, for CPU time
# as much as wall time, so raw times of the same code spread 20-30 %
# between runs.  The median time of a fixed pure-Python loop, sampled
# between ops over the whole run, tracks that drift.  Timed metrics are
# scaled to a host on which the loop takes REF_NOMINAL_S ("reference
# seconds"); raw times are printed beside them.  (A child process that
# imports numpy tracked CLI commands better over a few minutes, but not
# over ten-run sets, so one reference serves every workload.)

REF_LOOPS = 40_000
REF_NOMINAL_S = 0.004
REF_EVERY_S = 0.25


def reference_loop():
    """Time of a fixed loop that shares no code with abtqft."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


class HostSpeed:
    """Reference-loop times sampled between ops, at most every
    REF_EVERY_S unless forced."""

    def __init__(self):
        self.took = []
        self.last = -math.inf

    def sample(self, force=False):
        if force or time.perf_counter() - self.last >= REF_EVERY_S:
            self.took.append(reference_loop())
            self.last = time.perf_counter()

    def factor(self):
        """Reference seconds per raw second over the samples so far."""
        return REF_NOMINAL_S / statistics.median(self.took)


# -- measuring --------------------------------------------------------------

class Pass:
    """Latencies, comparable summaries and errors of one pass over some of
    the ops, by op index (None where the op did not run); raw outputs are
    kept only when asked (the checks need one run of each op)."""

    def __init__(self, n):
        self.latencies = [None] * n
        self.summaries = [None] * n
        self.errors = [None] * n
        self.outputs = [None] * n

    def ran(self):
        return [i for i, t in enumerate(self.latencies) if t is not None]


def run_pass(wl, indices, keep_outputs, speed, tracer=None, deadline=None):
    """Run the ops at `indices` in turn, sampling the host's `speed`
    between them; with a `deadline` (a perf_counter reading) no op starts
    after it."""
    execute = {wl.ops[i]["kind"]: wl.execute for i in indices}
    if tracer is not None:
        execute = {kind: tracer.wrap(f"op.{kind}", wl.execute)
                   for kind in execute}
    done = Pass(len(wl.ops))
    clock = time.perf_counter
    for i in indices:
        op = wl.ops[i]
        if deadline is not None and clock() >= deadline:
            break
        speed.sample()
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            out = execute[op["kind"]](op)
        except Exception as exc:            # an op that raises has failed
            done.latencies[i] = clock() - t0
            done.errors[i] = f"raised {type(exc).__name__}: {exc}"
            continue
        done.latencies[i] = clock() - t0
        try:
            done.summaries[i] = wl.summary(op, out)
        except Exception as exc:
            done.errors[i] = f"summary raised {type(exc).__name__}: {exc}"
        if keep_outputs:
            done.outputs[i] = out
    return done


def measure(wl, seconds, keep_first, speed, tracer=None, whole=False):
    """Passes over the batch until `seconds` are up; the first pass always
    runs whole.  The last pass stops where the time runs out, or, with
    `whole`, a pass starts only while another whole one fits."""
    start = time.perf_counter()
    speed.sample(force=True)
    passes = [run_pass(wl, wl.batch, keep_first, speed, tracer)]
    while True:
        elapsed = time.perf_counter() - start
        if whole:
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
            passes.append(run_pass(wl, wl.batch, False, speed, tracer))
        else:
            if elapsed >= seconds:
                break
            passes.append(run_pass(wl, wl.batch, False, speed, tracer,
                                   start + seconds))
    speed.sample(force=True)
    return passes


def op_latencies(wl, passes, factor=1.0):
    """Each batch op's mean latency over the passes that ran it, times
    `factor` (HostSpeed.factor() gives reference seconds)."""
    return [factor * statistics.fmean(p.latencies[i] for p in passes
                                      if p.latencies[i] is not None)
            for i in wl.batch]


def verify(wl, passes):
    """[(pass, op index, kind, problem)] over all passes.

    Each op is checked on its first run, which kept its outputs; every
    later run must reproduce that run's output exactly.  A check that
    raises counts as a failure.
    """
    first = {}
    for p in passes:
        for i in p.ran():
            first.setdefault(i, p)
    outputs = [first[i].outputs[i] if i in first else None
               for i in range(len(wl.ops))]
    verdicts = {}
    for i, p in first.items():
        problem = p.errors[i]
        if problem is None:
            try:
                problem = wl.check(wl.ops[i], outputs[i], outputs)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        verdicts[i] = problem
    failures = []
    for b, p in enumerate(passes):
        for i in p.ran():
            problem = p.errors[i] or verdicts[i]
            if problem is None and p.summaries[i] != first[i].summaries[i]:
                problem = "output differs from its first run"
            if problem:
                failures.append((b, i, wl.ops[i]["kind"], problem))
    return failures


def outputs_digest(first_pass):
    text = json.dumps(first_pass.summaries, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def tail(latencies):
    """(percentile, value): the highest whole percentile with at least
    TAIL_BEYOND of the latencies beyond it."""
    n = len(latencies)
    p = max(0, math.floor(100 * (n - TAIL_BEYOND) / n))
    ranked = sorted(latencies)
    return p, ranked[max(1, math.ceil(p / 100 * n)) - 1]


def setup_seconds(args):
    """(reference, raw) seconds: the median over fresh processes that only
    set up (imports, seeded inputs, warm-up) and exit; the reference loop
    runs between them."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload",
            args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        argv.append("--tiny")
    speed = HostSpeed()
    times = []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_REF_SAMPLES):
            speed.sample(force=True)
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, env=child_env(),
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    for _ in range(SETUP_REF_SAMPLES):
        speed.sample(force=True)
    raw = statistics.median(times)
    return raw * speed.factor(), raw


def calibrate():
    """25 reference loops, timed before and after the workload; the time
    tells machine drift from a code change.  It is recorded, never used
    to rescale a metric."""
    return sum(reference_loop() for _ in range(25))


def run_record(args):
    commit = "unknown (not a git checkout)"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
            check=True).stdout.split()
        if os.path.samefile(top, ROOT):
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "abtqft"))):
        dirs.sort()
        for f in sorted(files):
            if f.endswith((".py", ".json")):
                with open(os.path.join(base, f), "rb") as fh:
                    digest.update(f.encode() + b"\0" + fh.read())
    versions = {}
    for pkg in ("numpy", "scipy", "sympy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "commit": commit,
            "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), **versions,
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "load": "closed loop, 1 client, 1 process"}


# -- reporting --------------------------------------------------------------

def print_breakdown(wl, lat, large_kinds, once, factor):
    """Count per pass, share of wall_s and p50 of the op latencies, by
    size class and op kind; then the ops run once per run."""
    total = sum(lat)
    rows = {}
    for i, t in zip(wl.batch, lat):
        kind = wl.ops[i]["kind"]
        size = "large" if kind in large_kinds else "small"
        for key in {size, f"  {kind}"} - {f"  {size}"}:
            rows.setdefault(key, []).append(t)
    print(f"{'op kind':<14}{'per pass':>10}{'share of wall_s':>17}"
          f"{'p50 ms':>11}")
    for key in sorted(rows, key=lambda k: (k.strip() not in ("small", "large"),
                                           k)):
        kind_lat = rows[key]
        print(f"{key:<14}{len(kind_lat):>10}{sum(kind_lat) / total:>17.1%}"
              f"{1e3 * statistics.median(kind_lat):>11.3f}")
    for i in wl.once:
        t = once.latencies[i]
        print(f"{wl.ops[i]['kind']:<14}{'once':>10}{'not in wall_s':>17}"
              f"{1e3 * factor * t:>11.3f}  (raw {1e3 * t:.3f})")


def print_speed(speed):
    took = sorted(speed.took)
    print(f"host speed: {len(took)} reference-loop samples, "
          f"{1e3 * took[0]:.3f} to {1e3 * took[-1]:.3f} ms, median "
          f"{1e3 * statistics.median(took):.3f} ms; times below are "
          f"reference seconds, scaled by {speed.factor():.4f} to a "
          f"{1e3 * REF_NOMINAL_S:g} ms loop")


def print_failures(failures):
    for b, i, kind, problem in failures[:10]:
        print(f"FAILED pass {b} op {i} ({kind}): {problem}")
    if len(failures) > 10:
        print(f"... {len(failures) - 10} more failures")


def result_line(attempted, failures, metrics):
    return json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}})


def end_to_end(args, wl):
    setup_s, setup_raw = setup_seconds(args)
    speed = HostSpeed()
    passes = measure(wl, args.seconds, True, speed)
    once = run_pass(wl, wl.once, True, speed)
    speed.sample(force=True)
    peak = wl.peak_rss_mb()
    failures = verify(wl, passes + [once])
    factor = speed.factor()
    lat, raw = op_latencies(wl, passes, factor), op_latencies(wl, passes)
    attempted = sum(len(p.ran()) for p in passes + [once])
    p, tail_s = tail(lat)
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_s,
        "ok_ratio": 1.0 - len(failures) / attempted,
        "peak_rss_mb": peak,
    }
    runs = [sum(1 for p in passes if p.latencies[i] is not None)
            for i in wl.batch]
    print(f"passes: {len(passes)} over a batch of {len(wl.batch)} ops "
          f"(each op ran {min(runs)} to {max(runs)} times), "
          f"{len(wl.once)} op(s) once; "
          f"outputs sha256 {outputs_digest(passes[0])}")
    print_speed(speed)
    print_breakdown(wl, lat, LARGE_KINDS[args.workload], once, factor)
    beyond = sum(1 for t in lat if t > tail_s)
    notes = {"setup_s": f"median of {SETUP_REPEATS} fresh set-ups; "
                        f"raw {setup_raw:.6g} s",
             "wall_s": f"sum over the batch of each op's mean; "
                       f"raw {sum(raw):.6g} s",
             "op_p50_ms": f"median of {len(lat)} op means; raw "
                          f"{1e3 * statistics.median(raw):.6g} ms",
             "op_tail_ms": f"p{p} of {len(lat)} op means, {beyond} beyond "
                           f"it; raw {1e3 * tail(raw)[1]:.6g} ms",
             "ok_ratio": f"fail_ratio {len(failures) / attempted:.6g} "
                         f"({len(failures)} of {attempted} ops failed)"}
    for name, value in metrics.items():
        print(f"{name:<12} = {value:.6g} {END_TO_END[name]}"
              + (f"  ({notes[name]})" if name in notes else ""))
    print_failures(failures)
    return attempted, failures, {k: (v, END_TO_END[k])
                                 for k, v in metrics.items()}


def traced(args, wl):
    """Untraced passes for half the time, then whole traced passes (the
    per-layer metrics are per pass) and the once-per-run ops, traced."""
    from tracing import Tracer, layer_metrics
    start = time.perf_counter()
    speed = HostSpeed()
    untraced = measure(wl, args.seconds / 2, True, speed)
    tracer = Tracer()
    wl.start_trace(tracer)
    try:
        passes = measure(wl, args.seconds - (time.perf_counter() - start),
                         False, speed, tracer=tracer, whole=True)
        once = run_pass(wl, wl.once, True, speed, tracer)
        speed.sample(force=True)
    finally:
        wl.stop_trace(tracer)
    metrics, absent = layer_metrics(tracer, wl.ops, wl.batch, len(passes))
    start_s = wl.python_start_s()
    metrics["cli.python_start_s"] = (start_s or 0.0, "s")
    if start_s is None:
        absent["cli.python_start_s"] = "no child process on this workload"
    factor = speed.factor()
    lat = op_latencies(wl, passes, factor)
    overhead = sum(lat) / sum(op_latencies(wl, untraced, factor)) - 1.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    failures = verify(wl, untraced + passes + [once])
    spans_path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}"
                                    ".json")
    tracer.dump(spans_path)
    print(f"passes: {len(untraced)} untraced, {len(passes)} traced, over a "
          f"batch of {len(wl.batch)} ops, {len(wl.once)} op(s) once; "
          f"outputs sha256 {outputs_digest(untraced[0])}")
    print(f"spans: {len(tracer.spans)} written to "
          f"{os.path.relpath(spans_path, ROOT)}")
    print_speed(speed)
    print_breakdown(wl, lat, LARGE_KINDS[args.workload], once, factor)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:<40} = {value:.6g} {unit}"
              + (f"  (absent: {absent[name]})" if name in absent else ""))
    print_failures(failures)
    attempted = sum(len(p.ran()) for p in untraced + passes + [once])
    return attempted, failures, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few ops of each kind (for tests)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "abtqft", "__init__.py")):
        print(f"error: no abtqft sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_only:
            build(args.workload, args.seed, args.tiny, workdir)
            return 0
        record = run_record(args)
        record["calibration_before_s"] = calibrate()
        wl = build(args.workload, args.seed, args.tiny, workdir)
        run = traced if args.trace else end_to_end
        attempted, failures, metrics = run(args, wl)
        record["calibration_after_s"] = calibrate()
        print("record: " + json.dumps(record, sort_keys=True))
        print(result_line(attempted, failures, metrics))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
