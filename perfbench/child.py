"""One benchmark repetition, run by ``run.py`` in a fresh interpreter.

Builds one workload input from its seed, runs it to the workload's
horizon, checks the outputs and prints one JSON object as its last
stdout line.  ``--t0`` is the parent's ``time.monotonic()`` taken just
before it started this interpreter, so set-up time covers interpreter
start, every import (with cold module-level caches) and the engine
build.  With ``--setup-only`` the child stops once the engine is
ready.  With ``--trace`` it installs the span tracer (see ``spantrace.py``)
before the build and reports per-layer self times.

Exit status: 0 on success, 1 when the run raised or a check failed
(the JSON then carries ``error``), 2 when the program is missing.
"""

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


class CheckFailed(Exception):
    """An output of the program is wrong."""


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def requests_issued(metrics) -> int:
    return sum(c.hungry_count for c in metrics.counters.values())


def check(result, engine) -> None:
    """Correctness gate on one finished run (safety is checked live)."""
    times = result.response_times
    if result.cs_entries <= 0:
        raise CheckFailed("no critical-section entry in the whole run")
    if len(times) != result.cs_entries:
        raise CheckFailed(
            f"{len(times)} response samples for {result.cs_entries} entries"
        )
    if min(times) < 0:
        raise CheckFailed("negative response time")
    channel = result.channel
    if channel["delivered"] + channel["dropped_link_down"] > channel["sent"]:
        raise CheckFailed(f"channel delivered more than it sent: {channel}")
    if requests_issued(result.metrics) < result.cs_entries:
        raise CheckFailed("more critical-section entries than requests")
    safety = getattr(engine, "safety", None)
    if safety is not None:
        # Strict mode raised on the first overlap while running; sweep
        # every link once more at the horizon.
        safety.deep_check(result.duration)
    if getattr(engine, "violations", None):
        raise CheckFailed(f"shard violations: {engine.violations}")


def emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, default=STARTED)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"program source not found under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import repro
    import workloads

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"imported repro from {repro.__file__}\n")
        return 2
    tracer = None
    if args.trace:
        import spantrace

        tracer = spantrace.install(args.out)
    imported = time.monotonic()

    workload = workloads.resolve(args.workload, args.smoke)
    config = workloads.build_config(workload, args.seed)
    engine = workloads.build_engine(workload, config)
    built = time.monotonic()
    record = {
        "seed": args.seed,
        "setup_s": built - args.t0,
        "import_s": imported - args.t0,
        "build_s": built - imported,
        "build_rss_mb": rss_mb(),
    }
    if args.setup_only:
        emit(record)
        return 0

    wall_started = perf_counter()
    try:
        result = engine.run(until=workload.horizon)
        record["run_s"] = perf_counter() - wall_started
        check(result, engine)
    except Exception as exc:  # the run itself failed: report, exit 1
        metrics = getattr(engine, "metrics", None)
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["requests"] = requests_issued(metrics) if metrics else 0
        emit(record)
        return 1

    report = result.report().to_json(indent=None)
    channel = result.channel
    engine_stats = result.engine
    record.update(
        digest=hashlib.sha256(report.encode()).hexdigest(),
        response_times=result.response_times,
        cs_entries=result.cs_entries,
        requests=requests_issued(result.metrics),
        starved=len(result.starved),
        messages=result.messages_sent,
        delivered=channel["delivered"],
        dropped=channel["dropped_link_down"],
        events=engine_stats["executed_events"],
        pending_hw=engine_stats["scheduler"]["high_water"],
        windows=engine_stats.get("windows", 0),
        peak_rss_mb=result.resources["peak_rss_kb"] / 1024.0,
    )
    if tracer is not None:
        payloads = [tracer.payload()] + spantrace.load_worker_dumps(args.out)
        spans_path = os.path.join(args.out, f"{args.workload}.spans.pkl")
        with open(spans_path, "wb") as handle:
            pickle.dump({"layers": spantrace.LAYERS,
                         "processes": payloads}, handle)
        calls = {}
        for payload in payloads:
            for key, count in payload["calls"].items():
                calls[key] = calls.get(key, 0) + count
        hashes = set().union(*(p["graph_hashes"] for p in payloads))
        record["trace"] = {
            **spantrace.analyse(payloads),
            "calls": calls,
            "link_changes": sum(p["link_changes"] for p in payloads),
            "greedy_calls": sum(p["greedy_calls"] for p in payloads),
            "distinct_graphs": len(hashes),
            "crossings": sum(p["crossings"] for p in payloads),
            "worker_busy_s": sum(p["run_busy_s"] for p in payloads[1:]),
            "workers": len(payloads) - 1,
            "spans_file": os.path.relpath(spans_path, ROOT),
        }
    emit(record)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
