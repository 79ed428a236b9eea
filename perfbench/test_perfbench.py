"""Smoke tests of the benchmark itself, on tiny inputs.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py

Each workload runs at a few dozen nodes (``--smoke``), timed and
traced.  The tests check metric extraction, that the traced and
untraced runs of one seed produce the same report, and that the
per-layer self times account for the whole traced wall.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)


def invoke(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def bench_run(workload, trace, seed=7):
    proc = invoke(
        os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
        "--smoke",
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def child(workload, seed, *flags):
    proc = invoke(
        os.path.join(HERE, "child.py"), "--workload", workload,
        "--seed", str(seed), "--out", bench.OUT, "--smoke", *flags,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_reports_every_end_to_end_metric(workload):
    proc, result = bench_run(workload, trace=0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(bench.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == bench.END_TO_END[name]
        assert metric["value"] > 0, name
    assert "report_sha256=" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    proc, result = bench_run(workload, trace=1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True
    assert set(result["metrics"]) == set(bench.PER_LAYER)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["sim.events"] > 0 and values["channel.sent"] > 0
    assert values["trace.overhead"] > 0
    if workload == "alg1-greedy-static":
        assert values["coloring.greedy_calls"] > 0
        assert values["doorway.handler_calls"] > 0
    else:
        assert values["coloring.greedy_calls"] == 0
    if workload == "alg2-mobile":
        assert values["mobility.crossings"] > 0
        assert values["topology.link_changes"] > 0
    if workload == "alg2-sharded":
        assert values["sharded.windows"] > 0
        assert values["sharded.busy_s"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_only_observes_and_attributes_all_time(workload):
    plain = child(workload, 11)
    traced = child(workload, 11, "--trace")
    assert traced["digest"] == plain["digest"]
    trace = traced["trace"]
    assert trace["open_spans"] == 0
    assert trace["worst_negative_self_s"] > -1e-4
    # Self times telescope to the root spans of every process ...
    total_self = sum(trace["self_s"].values())
    assert total_self == pytest.approx(sum(trace["root_s"]), rel=1e-6)
    # ... and the main process's root covers the traced wall.
    assert trace["root_s"][0] == pytest.approx(traced["run_s"], rel=0.01)
    if workload == "alg2-sharded":
        assert trace["workers"] == 2 and trace["worker_busy_s"] > 0


def test_percentile_falls_back_to_the_highest_supported_one():
    assert bench.supported_percentile(5000) == 99.0
    assert bench.supported_percentile(1000) == 99.0
    assert bench.supported_percentile(500) == 98.0
    assert bench.supported_percentile(276) == 96.3
    ordered = list(range(1, 101))
    assert bench.percentile(ordered, 50.0) == 50
    assert bench.percentile(ordered, 99.0) == 99


def test_same_seed_disagreement_fails_the_run():
    seed = 424242
    ledger_path = os.path.join(bench.OUT, "digests.json")
    os.makedirs(bench.OUT, exist_ok=True)
    try:
        with open(ledger_path) as handle:
            saved = handle.read()
    except FileNotFoundError:
        saved = None
    try:
        ledger = json.loads(saved) if saved else {}
        ledger.setdefault(bench.program_id(), {})[
            f"alg2-static:{seed}:1"
        ] = "0" * 64
        with open(ledger_path, "w") as handle:
            json.dump(ledger, handle)
        proc = invoke(
            os.path.join(HERE, "run.py"), "--workload", "alg2-static",
            "--seed", str(seed), "--seconds", "1", "--smoke",
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert proc.returncode == 1
        assert result["correct"] is False
        assert result["failed"] == result["attempted"]
    finally:
        if saved is None:
            os.remove(ledger_path)
        else:
            with open(ledger_path, "w") as handle:
                handle.write(saved)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = invoke("perfbench/run.py", "--workload", "alg2-static",
                  "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
