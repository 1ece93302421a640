"""Tests of the benchmark itself (tiny runs; not part of the library suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def bench(workload, trace, cwd=ROOT, script=None):
    argv = [sys.executable, script or os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(proc):
    line = next(l for l in proc.stdout.splitlines() if l.startswith("passes:"))
    return line.split("outputs sha256 ")[1]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    proc = bench(workload, 0)
    res = result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    for name, unit in want.items():
        assert res["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name:<12} = ")
                   and f" {unit}" in line for line in proc.stdout.splitlines())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_and_untraced_runs_produce_identical_outputs(workload):
    plain, traced = bench(workload, 0), bench(workload, 1)
    res = result(traced)
    assert res["failed"] == 0      # every traced op matched its untraced run
    assert digest(plain) == digest(traced)
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want


def test_wrong_expected_answer_counts_in_fail_ratio(tmp_path, monkeypatch):
    wl = run.build("geometry", 3, True, str(tmp_path))
    real_check = wl.check

    def wrong_shift(op, out, outputs):
        if op["kind"] == "su":
            op = dict(op, shift=op["shift"] + 1)
        return real_check(op, out, outputs)

    monkeypatch.setattr(wl, "check", wrong_shift)
    monkeypatch.setattr(run, "setup_seconds", lambda args: (1.0, 1.0))
    args = argparse.Namespace(
        workload="geometry", seed=3, seconds=0.0, trace=0, tiny=True)
    attempted, failures, metrics = run.end_to_end(args, wl)
    n_su = sum(1 for op in wl.ops if op["kind"] == "su")
    assert len(failures) == n_su and attempted == len(wl.ops)
    assert all("lift shift" in problem for *_, problem in failures)
    assert metrics["ok_ratio"][0] == pytest.approx(1 - n_su / attempted)
    line = json.loads(run.result_line(attempted, failures, metrics))
    assert line["correct"] is False and line["failed"] == n_su


def test_a_check_that_raises_is_a_failure_not_a_crash(tmp_path):
    wl = run.build("algebra", 3, True, str(tmp_path))
    batches = run.measure(wl, 0, True, run.HostSpeed())
    victim = next(i for i, op in enumerate(wl.ops) if op["kind"] == "xi")
    wl.ops[victim] = dict(wl.ops[victim], xi_value=None)
    failures = run.verify(wl, batches)
    assert [(i, kind) for _, i, kind, _ in failures] == [(victim, "xi")]
    assert failures[0][3].startswith("check raised")


def test_op_latency_is_a_mean_over_whole_and_cut_passes(tmp_path):
    wl = run.build("algebra", 3, True, str(tmp_path))
    passes = [run.Pass(len(wl.ops)) for _ in range(3)]
    for k, p in enumerate(passes[:2]):
        p.latencies = [1.0 + k + i for i in range(len(wl.ops))]
    passes[2].latencies[0] = 0.5          # a last pass cut after one op
    raw = run.op_latencies(wl, passes)
    assert raw == pytest.approx([3.5 / 3] + [1.5 + i
                                             for i in range(1, len(wl.ops))])
    assert run.tail(list(range(100))) == (90, 89)
    # on a host at half the reference speed raw times are twice as long
    speed = run.HostSpeed()
    speed.took = [2 * run.REF_NOMINAL_S] * 3
    assert run.op_latencies(wl, passes, speed.factor()) == pytest.approx(
        [t / 2 for t in raw])


def test_same_seed_same_inputs():
    pools = [[["icosahedron", 0], ["icosahedron", 1]]]
    assert gen.algebra(5) == gen.algebra(5) != gen.algebra(6)
    assert gen.geometry(5, pools) == gen.geometry(5, pools)
    assert gen.geometry(5, pools) != gen.geometry(6, pools)
    assert gen.cli_session(5, pools) == gen.cli_session(5, pools)


def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("algebra", 0, cwd=tmp_path,
                 script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
