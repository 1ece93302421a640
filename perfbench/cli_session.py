"""The `cli-session` workload: one fresh `python -m abtqft.cli` per op.

Setup writes the seeded input files into a scratch directory of the run.
Each op starts one child, waits for it and keeps its exit code, output
and peak RSS; only one child runs at a time.  In a traced run the child
goes through `launcher.py`, which installs the same span wrappers and
writes the child's spans to a file.  Checks are untimed: README values,
byte-identical stdout for the `samples/` commands, exact identities and
independent oracles for the seeded ones.
"""

from __future__ import annotations

import json
import math
import os
import re
import statistics
import subprocess
import sys
import threading
import time

import gen

CHILD_TIMEOUT_S = 150
HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launcher.py")
with open(os.path.join(HERE, "golden.json")) as _fh:
    GOLDEN = json.load(_fh)


def run_child(argv, env, cwd, out_prefix):
    """Run argv to completion: (exit code, stdout, stderr, peak RSS in MB).

    The child's stdout and stderr go to files (no pipe can fill up), and
    os.wait4 returns the child's own peak RSS.  A timer kills a child
    that runs past CHILD_TIMEOUT_S.
    """
    out_path, err_path = out_prefix + ".out", out_prefix + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return proc.returncode, stdout, stderr, usage.ru_maxrss / 1024.0


class CliSession:
    """Commands of one batch, those run once per run (`batch` and `once`
    hold their indices), and what running and checking them needs."""

    def __init__(self, commands, root, workdir, env):
        self.ops = commands
        self.batch = [i for i, c in enumerate(commands) if not c.get("once")]
        self.once = [i for i, c in enumerate(commands) if c.get("once")]
        self.root = root
        self.workdir = workdir
        self.env = env
        self.trace_files = None     # spans files of traced children, while tracing
        self._peak_rss_mb = 0.0
        rel = os.path.relpath(workdir, root)
        for i, cmd in enumerate(commands):
            cmd["index"] = i
            for name, obj in cmd["files"].items():
                with open(os.path.join(workdir, name), "w") as fh:
                    json.dump(obj, fh)
            argv = [os.path.join(rel, a) if a in cmd["files"] else a
                    for a in cmd["argv"]]
            if cmd.get("record"):
                cmd["record_path"] = os.path.join(workdir, f"record{i}.json")
                argv = ["--record", os.path.join(rel, f"record{i}.json")] + argv
            cmd["cli_argv"] = argv

    def warm_up(self):
        """One child, so interpreter and library files are in the page cache."""
        run_child([sys.executable, "-m", "abtqft.cli", "bnr", "table",
                   "validate"], self.env, self.root,
                  os.path.join(self.workdir, "warm-up"))

    def execute(self, op):
        i = op["index"]
        prefix = os.path.join(self.workdir, f"op{i}")
        if self.trace_files is None:
            argv = [sys.executable, "-m", "abtqft.cli"] + op["cli_argv"]
        else:
            spans = prefix + ".spans.json"
            self.trace_files.append(spans)
            argv = [sys.executable, LAUNCHER, spans, str(i)] + op["cli_argv"]
        code, stdout, stderr, rss = run_child(argv, self.env, self.root, prefix)
        self._peak_rss_mb = max(self._peak_rss_mb, rss)
        record = None
        if op.get("record_path") and os.path.exists(op["record_path"]):
            with open(op["record_path"]) as fh:
                record = json.load(fh)
            os.remove(op["record_path"])
        return {"code": code, "stdout": stdout, "stderr": stderr,
                "rss_mb": rss, "record": record}

    def start_trace(self, tracer):
        self.trace_files = []

    def stop_trace(self, tracer):
        """Merge the spans each traced child wrote."""
        for path in self.trace_files:
            tracer.merge_file(path)
        self.trace_files = None

    def python_start_s(self, repeats=5):
        """Median wall time of a bare interpreter start (`python -c pass`)."""
        times = []
        for i in range(repeats):
            t0 = time.perf_counter()
            run_child([sys.executable, "-c", "pass"], self.env, self.root,
                      os.path.join(self.workdir, f"bare{i}"))
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def peak_rss_mb(self):
        """The largest peak RSS of any child so far."""
        return self._peak_rss_mb

    def summary(self, op, out):
        stdout = out["stdout"]
        if op["kind"] == "acceptance":    # detail strings carry timings
            stdout = [line.split(":")[0] for line in stdout.splitlines()]
        # the record names input files under this run's own scratch path
        record = json.dumps(out["record"], sort_keys=True).replace(
            os.path.relpath(self.workdir, self.root), "<work>")
        return {"code": out["code"], "stdout": stdout, "record": record}

    def check(self, op, out, outputs):
        """None if the command did the right thing, else what is wrong;
        `outputs` holds the raw outputs of the whole batch."""
        if out["code"] != 0:
            tail = out["stderr"].strip().splitlines()[-1:] or [""]
            return f"exit code {out['code']}: {tail[0]}"
        if op.get("record"):
            problem = _check_record(op, out)
            if problem:
                return problem
        lines = out["stdout"].splitlines()
        data = None
        if "--format" in op["argv"]:
            data = json.loads(out["stdout"])
        return CHECKS[op["kind"]](self, op, lines, data, outputs)


def _check_record(op, out):
    rec = out["record"]
    if rec is None:
        return "no --record file written"
    if rec.get("output") != out["stdout"].rstrip("\n"):
        return "--record output differs from stdout"
    if rec.get("command") != op["cli_argv"][2:]:
        return f"--record command {rec.get('command')} != {op['cli_argv'][2:]}"
    return None


def _matrix_line(lines, name):
    for line in lines:
        if line.startswith(name + " = "):
            return json.loads(line.split(" = ", 1)[1])
    raise ValueError(f"no '{name} = ' line")


def _smith_ok(M, diag, U, V):
    D = gen.matmul(gen.matmul(U, M), V)
    m, n = len(M), len(M[0])
    want = [[diag[i] if i == j else 0 for j in range(n)] for i in range(m)]
    return D == want


def check_sample(session, op, lines, data, outputs):
    key = " ".join(op["argv"])
    golden = GOLDEN[key]
    if op["argv"][:2] == ["group", "smith"]:
        # transforms may change with the algorithm: compare the diagonal
        # and check U M V = D on what was printed
        with open(os.path.join(session.root, op["argv"][2])) as fh:
            M = json.load(fh)
        U, V = _matrix_line(lines, "U"), _matrix_line(lines, "V")
        diag = [int(d) for d in re.findall(r"-?\d+", lines[0])]
        if lines[0] != golden.splitlines()[0] or not _smith_ok(M, diag, U, V):
            return "group smith: diagonal or U M V = D wrong"
    elif outputs[op["index"]]["stdout"] != golden:
        return f"stdout differs from the recorded output of `{key}`"
    missing = [v for v in op["expect"]["readme"] if v not in lines]
    return f"README value(s) {missing} not printed" if missing else None


def check_smith(session, op, lines, data, outputs):
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors
    M = op["expect"]["matrix"]
    if data is None:
        diag = [int(d) for d in re.findall(r"-?\d+", lines[0])]
        U, V = _matrix_line(lines, "U"), _matrix_line(lines, "V")
    else:
        diag, U, V = data["diag"], data["U"], data["V"]
    ref = [int(v) for v in invariant_factors(Matrix(M), domain=ZZ)]
    if diag != ref + [0] * (len(diag) - len(ref)):
        return f"diagonal {diag} != sympy's {ref}"
    return None if _smith_ok(M, diag, U, V) else "U M V != D"


def check_kernel(session, op, lines, data, outputs):
    from sympy import Matrix
    M = op["expect"]["matrix"]
    incl = _matrix_line(lines, "incl") if data is None else data["incl"]
    cols = len(incl[0]) if incl else 0
    rank = Matrix(M).rank()
    if cols != len(M[0]) - rank:
        return f"kernel has {cols} generators, expected {len(M[0]) - rank}"
    if cols and any(any(row) for row in gen.matmul(M, incl)):
        return "M incl != 0"
    return None


def check_solve(session, op, lines, data, outputs):
    exp = op["expect"]
    if data is None:
        if lines[0] == "absent":
            return "solvable system reported absent"
        x = [int(v) for v in re.findall(r"-?\d+", lines[0])]
    else:
        x = data["solution"]
        if x is None:
            return "solvable system reported absent"
    image = gen.matvec(exp["matrix"], x)
    for got, want, d in zip(image, exp["rhs"], exp["mods"]):
        if (got - want) % d if d else got != want:
            return f"M x = {image} misses {exp['rhs']} mod {exp['mods']}"
    return None


def check_hom(session, op, lines, data, outputs):
    from abtqft import fgab, testing
    rec = next(iter(op["files"].values()))
    A_mor = fgab.group_from_json(rec["source"])
    A_ob = fgab.group_from_json(rec["target"])
    phi = fgab.GroupMorphism(A_mor, A_ob, rec["matrix"])
    i = op["argv"].index("hom") + 2
    a, b = (A_ob.element([int(v) for v in t.split(",")])
            for t in op["argv"][i:i + 2])
    if data is None:
        empty = lines[0] == "empty"
        part = None if empty else [int(v) for v in
                                   re.findall(r"-?\d+", lines[0])]
        agrees = "oracle: agrees" in lines
    else:
        empty = data["status"] == "empty"
        part, agrees = data.get("particular"), data.get("oracle")
    if empty:
        table, _ = testing.brute_hom_table(phi)
        found = table.get((a.key(), b.key()))
        return f"empty hom-set, enumeration finds {len(found)}" if found else None
    if (a + phi(A_mor.element(part))).key() != b.key():
        return f"a + phi({part}) != b"
    return None if agrees else "hom-set oracle did not agree"


def check_chern(session, op, lines, data, outputs):
    value = int(lines[0]) if data is None else data["chern"]
    euler = op["expect"]["euler"]
    return None if value == euler else f"chern {value} != Euler {euler}"


_RESULT = re.compile(r"raw=(\S+) int=(-?\d+) mod(\d+)=(\d+)")


def _invariant(lines, data):
    """(raw, integer, residue, [certificate differences]) from either format."""
    if data is not None:
        return (data["raw"], data["integer"], data["residue"],
                [(c["difference"], c["in_hypothesis"])
                 for c in data["certificate"]])
    raw, integer, _, residue = _RESULT.match(lines[0]).groups()
    cert = [(int(re.search(r"diff=(-?\d+)", line).group(1)),
             "[out-of-hypothesis]" not in line)
            for line in lines[1:] if line.startswith("certificate:")]
    return float(raw), int(integer), int(residue), cert


def check_su(session, op, lines, data, outputs):
    raw, integer, residue, cert = _invariant(lines, data)
    if abs(raw - integer) > 1e-9 or residue != integer % 2:
        return f"su result raw={raw} int={integer} mod2={residue}"
    if any(diff % 2 for diff, inside in cert if inside):
        return f"odd in-hypothesis bounding difference in {cert}"
    shift = op["expect"]["shift"]
    if not shift:
        return None
    partner = next(o for o in session.ops
                   if o["kind"] == "su" and o["expect"]["pair"]
                   == op["expect"]["pair"] and not o["expect"]["shift"])
    other = outputs[partner["index"]]
    if other is None or other["code"] != 0:
        return "unshifted partner scene failed"
    other_data = (json.loads(other["stdout"])
                  if "--format" in partner["argv"] else None)
    base = _invariant(other["stdout"].splitlines(), other_data)[1]
    return None if integer == base - shift else (
        f"lift shift by {shift}: {integer} != {base} - {shift}")


def check_psi(session, op, lines, data, outputs):
    raw, integer, residue, cert = _invariant(lines, data)
    want = op["expect"]["integer"]
    if integer != want or residue != want % 24:
        return f"psi int={integer} mod24={residue}, expected {want}"
    if abs(raw - integer) > 1e-6:
        return f"psi raw {raw} is not integral"
    if any(diff % 24 for diff, _ in cert):
        return f"certificate difference outside 24Z: {cert}"
    return None


def check_cs(session, op, lines, data, outputs):
    if data is None:
        cs, vol = (float(line.split(" = ")[1]) for line in lines[:2])
    else:
        cs, vol = data["cs"], data["volume"]
    if abs(abs(cs) - 1.0) > 1e-5 or abs(vol - 2.0 * math.pi ** 2) > 1e-3:
        return f"cs = {cs}, volume = {vol}"
    return None


def check_acceptance(session, op, lines, data, outputs):
    passed = [line for line in lines if line.startswith("PASS ")]
    return None if len(passed) == 11 else f"{len(passed)}/11 criteria pass"


CHECKS = {"sample": check_sample, "smith": check_smith, "kernel": check_kernel,
          "solve": check_solve, "hom": check_hom, "chern": check_chern,
          "su": check_su, "psi": check_psi, "cs": check_cs,
          "acceptance": check_acceptance}

