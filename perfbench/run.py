"""End-to-end benchmark of the paper's algorithms, with per-layer split.

Run from the repository root::

    python3 perfbench/run.py --workload alg2-static --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` times the workload and prints every end-to-end metric;
``--trace 1`` runs it once untraced and once under the span tracer and
prints the per-layer metrics.  Every repetition runs in a fresh
interpreter (``child.py``), so set-up time includes the imports and
module-level caches start cold.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Exit status: 0 when every check passed; 1 when a correctness check
failed (the result line is still printed, with ``correct: false``);
2 when the program under test cannot be found (no result line).
See README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: One run must end within this many seconds, children included.
RUN_BUDGET_S = 170.0
#: Set-up is sampled at least this many times per timed run.
SETUP_SAMPLES = 5
#: Traced self times must account for the traced wall to this share.
ATTRIBUTION_TOLERANCE = 0.01

END_TO_END = {
    "setup_s": "s",
    "cs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "response_p50_tu": "tu",
    "response_p99_tu": "tu",
    "response_samples": "count",
    "msgs_per_cs": "count",
}

PER_LAYER = {
    "sim.events": "count",
    "sim.events_per_cs": "count",
    "sim.pending_hw": "count",
    "sim.self_s": "s",
    "channel.sent": "count",
    "channel.dropped": "count",
    "channel.delivered_ratio": "ratio",
    "channel.self_s": "s",
    "linklayer.indications": "count",
    "linklayer.self_s": "s",
    "topology.updates": "count",
    "topology.link_changes": "count",
    "topology.self_s": "s",
    "mobility.crossings": "count",
    "mobility.self_s": "s",
    "forks.handler_calls": "count",
    "forks.self_us_per_msg": "us",
    "forks.self_s": "s",
    "doorway.handler_calls": "count",
    "doorway.self_s": "s",
    "coloring.greedy_calls": "count",
    "coloring.distinct_ratio": "ratio",
    "coloring.self_s": "s",
    "runtime.callbacks": "count",
    "runtime.self_s": "s",
    "metrics.self_s": "s",
    "metrics.starved_frac": "ratio",
    "sharded.windows": "count",
    "sharded.busy_s": "s",
    "sharded.idle_frac": "ratio",
    "sharded.self_s": "s",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "setup.build_rss_mb": "MB",
    "trace.overhead": "x",
    "trace.spans": "count",
}


class ProgramMissing(Exception):
    """The program under test is not in this checkout."""


class Gate:
    """Collects correctness failures; a run is correct when it has none."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)
            print(f"CHECK FAILED: {message}")


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def run_child(
    args, seed: int, deadline: float, setup_only: bool = False,
    trace: bool = False,
) -> Tuple[int, Dict[str, Any]]:
    """One repetition in a fresh interpreter: (exit status, record)."""
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(seed), "--out", OUT,
    ]
    if setup_only:
        command.append("--setup-only")
    if trace:
        command.append("--trace")
    if args.smoke:
        command.append("--smoke")
    timeout = max(1.0, deadline - time.monotonic())
    # Taken last, so the child's set-up clock starts at its own launch.
    command += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return -1, {"error": f"timed out after {timeout:.0f}s", "seed": seed}
    if proc.returncode == 2:
        raise ProgramMissing(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        record = None
    if proc.returncode != 0 or record is None:
        tail = proc.stderr.strip().splitlines()[-3:]
        record = dict(record or {}, seed=seed)
        record.setdefault("error", " | ".join(tail) or "no result")
    return proc.returncode, record


def program_id() -> str:
    """Digest of the program's source: keys the same-seed ledger."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"),
                              recursive=True)):
        digest.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def check_ledger(gate: Gate, args, records: List[Dict[str, Any]]) -> None:
    """Runs of the same seed on the same program must report the same.

    Every report digest is kept in ``out/digests.json`` under the
    program's source digest; a later run of the same workload and seed
    must reproduce it exactly.
    """
    path = os.path.join(OUT, "digests.json")
    try:
        with open(path) as handle:
            ledger = json.load(handle)
    except (OSError, json.JSONDecodeError):
        ledger = {}
    known = ledger.setdefault(program_id(), {})
    for record in records:
        key = f"{args.workload}:{record['seed']}:{int(args.smoke)}"
        seen = known.setdefault(key, record["digest"])
        gate.require(
            seen == record["digest"],
            f"seed {record['seed']} reproduced a different report "
            f"({record['digest'][:12]} vs {seen[:12]} earlier)",
        )
    with open(path, "w") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_percentile(samples: int) -> float:
    """99, or the highest percentile with 10 samples beyond it."""
    if samples <= 20:
        return 50.0
    return min(99.0, math.floor(1000.0 * (1.0 - 10.0 / samples)) / 10.0)


def end_to_end(runs: List[Dict[str, Any]],
               setups: List[float]) -> Dict[str, float]:
    pooled = sorted(t for run in runs for t in run["response_times"])
    q = supported_percentile(len(pooled))
    if q != 99.0:
        print(f"note: {len(pooled)} samples support p{q} at most; "
              f"response_p99_tu reports p{q}")
    cs = sum(run["cs_entries"] for run in runs)
    return {
        "setup_s": statistics.median(setups),
        "cs_per_s": statistics.median(
            run["cs_entries"] / run["run_s"] for run in runs
        ),
        "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
        "response_p50_tu": percentile(pooled, 50.0),
        "response_p99_tu": percentile(pooled, q),
        "response_samples": len(pooled),
        "msgs_per_cs": sum(run["messages"] for run in runs) / cs,
    }


def per_layer(plain: Dict[str, Any], traced: Dict[str, Any],
              shards: int) -> Dict[str, float]:
    trace = traced["trace"]
    self_s = trace["self_s"]
    entries = trace["entries"]
    calls = trace["calls"]
    cs = traced["cs_entries"]
    busy = trace["worker_busy_s"]
    return {
        "sim.events": traced["events"],
        "sim.events_per_cs": traced["events"] / cs,
        "sim.pending_hw": traced["pending_hw"],
        "sim.self_s": self_s["sim"],
        "channel.sent": traced["messages"],
        "channel.dropped": traced["dropped"],
        "channel.delivered_ratio": traced["delivered"] / traced["messages"],
        "channel.self_s": self_s["channel"],
        "linklayer.indications": calls["NodeHarness.on_link_up"]
        + calls["NodeHarness.on_link_down"],
        "linklayer.self_s": self_s["linklayer"],
        "topology.updates": sum(
            count for key, count in calls.items()
            if key.startswith("DynamicTopology.")
        ),
        "topology.link_changes": trace["link_changes"],
        "topology.self_s": self_s["topology"],
        "mobility.crossings": trace["crossings"],
        "mobility.self_s": self_s["mobility"],
        "forks.handler_calls": entries["forks"],
        "forks.self_us_per_msg": 1e6 * self_s["forks"]
        / max(1, traced["delivered"]),
        "forks.self_s": self_s["forks"],
        "doorway.handler_calls": entries["doorway"],
        "doorway.self_s": self_s["doorway"],
        "coloring.greedy_calls": trace["greedy_calls"],
        "coloring.distinct_ratio": trace["distinct_graphs"]
        / max(1, trace["greedy_calls"]),
        "coloring.self_s": self_s["coloring"],
        "runtime.callbacks": sum(
            count for key, count in calls.items()
            if key.startswith("NodeHarness.")
        ),
        "runtime.self_s": self_s["runtime"],
        "metrics.self_s": self_s["metrics"],
        "metrics.starved_frac": traced["starved"] / traced["requests"],
        "sharded.windows": traced["windows"],
        "sharded.busy_s": busy,
        "sharded.idle_frac": (
            1.0 - busy / (shards * traced["run_s"]) if shards > 1 else 0.0
        ),
        "sharded.self_s": self_s["sharded"],
        "setup.import_s": plain["import_s"],
        "setup.build_s": plain["build_s"],
        "setup.build_rss_mb": plain["build_rss_mb"],
        "trace.overhead": traced["run_s"] / plain["run_s"],
        "trace.spans": trace["spans"],
    }


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def describe(record: Dict[str, Any]) -> str:
    if "error" in record:
        return f"seed={record['seed']} FAILED: {record['error']}"
    return (
        f"seed={record['seed']} run={record['run_s']:.2f}s "
        f"cs={record['cs_entries']} requests={record['requests']} "
        f"starved={record['starved']} events={record['events']} "
        f"rss={record['peak_rss_mb']:.1f}MB report_sha256={record['digest']}"
    )


def timed(args, workload, deadline: float, gate: Gate):
    reps = max(1, int(args.seconds // workload.nominal_rep_s))
    setups: List[float] = []
    for k in range(max(0, SETUP_SAMPLES - reps)):
        status, record = run_child(args, args.seed, deadline,
                                   setup_only=True)
        gate.require(status == 0, f"set-up sample {k} failed: "
                                  f"{record.get('error')}")
        if status == 0:
            setups.append(record["setup_s"])
    runs, attempted = [], 0
    for seed in workloads.sub_seeds(args.seed, reps):
        status, record = run_child(args, seed, deadline)
        print(describe(record))
        attempted += record.get("requests", 0)
        if status != 0:
            gate.require(False, f"seed {seed}: {record['error']}")
            continue
        runs.append(record)
        setups.append(record["setup_s"])
    if runs:
        check_ledger(gate, args, runs)
    metrics = end_to_end(runs, setups) if not gate.failures else {}
    return metrics, END_TO_END, attempted


def traced(args, workload, deadline: float, gate: Gate):
    status, plain = run_child(args, args.seed, deadline)
    print("untraced:", describe(plain))
    attempted = plain.get("requests", 0)
    if status != 0:
        gate.require(False, f"untraced run: {plain['error']}")
        return {}, PER_LAYER, attempted
    check_ledger(gate, args, [plain])
    status, spans = run_child(args, args.seed, deadline, trace=True)
    print("traced:  ", describe(spans))
    if status != 0:
        gate.require(False, f"traced run: {spans['error']}")
        return {}, PER_LAYER, attempted
    trace = spans["trace"]
    gate.require(
        spans["digest"] == plain["digest"],
        "traced and untraced runs of the same seed disagree",
    )
    gate.require(trace["open_spans"] == 0,
                 f"{trace['open_spans']} spans never closed")
    gate.require(trace["worst_negative_self_s"] > -1e-4,
                 f"negative self time {trace['worst_negative_self_s']}")
    attributed = trace["root_s"][0]
    gap = abs(attributed - spans["run_s"]) / spans["run_s"]
    print(f"attribution: layer self times sum to {attributed:.4f}s of "
          f"{spans['run_s']:.4f}s traced wall ({100 * gap:.3f}% apart); "
          f"{trace['workers']} worker process(es); spans in "
          f"{trace['spans_file']}")
    gate.require(gap <= ATTRIBUTION_TOLERANCE,
                 f"self times miss {100 * gap:.2f}% of the traced wall")
    metrics = {} if gate.failures else per_layer(
        plain, spans, workload.shards
    )
    return metrics, PER_LAYER, attempted


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the paper's algorithms."
    )
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write(f"error: no program source under {ROOT}/src\n")
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    workload = workloads.resolve(args.workload, args.smoke)
    print(f"workload {workload.name}: {workload.algorithm}, "
          f"n={workload.nodes} in {workload.side:g}x{workload.side:g}, "
          f"{workload.movers} movers, {workload.shards} shard(s), "
          f"horizon {workload.horizon:g} tu, seed {args.seed}")
    gate = Gate()
    mode = traced if args.trace else timed
    try:
        metrics, units, attempted = mode(args, workload, deadline, gate)
    except ProgramMissing as exc:
        sys.stderr.write(f"error: program under test missing: {exc}\n")
        return 2
    for name, value in metrics.items():
        print(f"  {name:26s} {value:>14.6g} {units[name]}")
    correct = not gate.failures
    attempted = max(1, attempted)
    # A run that raised or failed a check counts all its requests failed.
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
