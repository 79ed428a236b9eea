"""Benchmark-side span tracer: per-layer self time from outside ``src/``.

:func:`install` replaces the boundary methods of each layer's public
classes with thin wrappers that record one span per call (layer, start,
end, parent) into flat in-memory arrays, and attaches a profiler to
every :class:`~repro.sim.engine.Simulator` through the public
``attach_profiler`` hook.  The profiler closes one span per executed
engine event and charges it to the layer that owns the event callback,
so each event is one span tree: the event at the root, the wrapped
boundary calls it made beneath.  A layer's self time is its spans'
durations minus their direct children's, so protocol handler time
reached through a channel drain is charged to the protocol, not to the
channel.

Wrappers must be installed before the engine is built, because some
components capture bound methods at construction (``ChannelLayer``
keeps ``linklayer.deliver``).  Forked shard workers inherit the
wrappers; each one writes its spans to a file when its shard finishes
and the parent folds them in (:func:`load_worker_dumps`).
"""

from __future__ import annotations

import functools
import glob
import os
import pickle
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

LAYERS = (
    "sim", "channel", "linklayer", "topology", "mobility", "forks",
    "doorway", "coloring", "runtime", "metrics", "sharded",
)
_LAYER_ID = {name: i for i, name in enumerate(LAYERS)}

#: Module prefix -> layer, first match wins (so longer prefixes first).
_MODULE_LAYERS = (
    ("repro.sim.sharded", "sharded"),
    ("repro.sim.partition", "sharded"),
    ("repro.sim.", "sim"),
    ("repro.net.channel", "channel"),
    ("repro.net.linklayer", "linklayer"),
    ("repro.net.", "topology"),
    ("repro.mobility.", "mobility"),
    ("repro.core.coloring.", "coloring"),
    ("repro.core.algorithm1", "doorway"),
    ("repro.core.doorway", "doorway"),
    ("repro.core.", "forks"),
    ("repro.runtime.", "runtime"),
    ("repro.metrics.", "metrics"),
)


def layer_of_module(module: str) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module.startswith(prefix):
            return layer
    return "sim"


class Tracer:
    """Span arrays for one process plus the counters taken beside them."""

    def __init__(self, dump_dir: str) -> None:
        self.dump_dir = dump_dir
        self.main_pid = self.pid = os.getpid()
        #: Per-wrapper call counters; the wrappers hold the cells.
        self.calls: Dict[str, List[int]] = {}
        self._reset()

    def _reset(self) -> None:
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: List[int] = []
        #: Index of the open ``Simulator.run`` span, and the slot
        #: reserved for the engine event now executing under it.
        self.run_idx = -1
        self.event_slot = -1
        for cell in self.calls.values():
            cell[0] = 0
        self.link_changes = 0
        self.graph_hashes: set = set()
        self.greedy_calls = 0
        self.crossings: Dict[int, int] = {}
        self.run_busy_s = 0.0
        self._owner_cache: Dict[str, int] = {}

    def after_fork_in_child(self) -> None:
        """A forked worker starts with empty arrays of its own."""
        self.pid = os.getpid()
        self._reset()

    # ------------------------------------------------------------------
    # Span recording (hot)
    # ------------------------------------------------------------------
    def _open(self, layer_id: int) -> int:
        stack = self.stack
        if stack:
            parent = stack[-1]
            if parent == self.run_idx:
                # Top level of an engine event: hang it under the
                # event's slot, reserved now and filled in by note().
                parent = self.event_slot
                if parent < 0:
                    parent = self.event_slot = self._append(
                        0, 0.0, 0.0, self.run_idx
                    )
        else:
            parent = -1
        idx = self._append(layer_id, perf_counter(), 0.0, parent)
        stack.append(idx)
        return idx

    def _append(self, layer_id: int, start: float, end: float,
                parent: int) -> int:
        idx = len(self.layer)
        self.layer.append(layer_id)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return idx

    def _close(self, idx: int) -> float:
        now = perf_counter()
        self.end[idx] = now
        self.stack.pop()
        return now - self.start[idx]

    def wrap(self, fn: Callable, layer: str, key: str,
             observe: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` recording one ``layer`` span per call.

        ``observe(*args)`` runs before the call (counting inputs);
        ``after(*args)`` runs once the span is closed.
        """
        layer_id = _LAYER_ID[layer]
        count = self.calls.setdefault(key, [0])
        open_span = self._open
        close_span = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[0] += 1
            if observe is not None:
                observe(*args)
            idx = open_span(layer_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(idx)
                if after is not None:
                    after(*args)

        return wrapper

    # ------------------------------------------------------------------
    # Engine profiler hook (Simulator.attach_profiler)
    # ------------------------------------------------------------------
    def note(self, callback: Callable[..., Any], seconds: float,
             now: float) -> None:
        """Close the span of one executed engine event."""
        ended = perf_counter()
        while isinstance(callback, functools.partial):
            callback = callback.func
        module = getattr(callback, "__module__", None) or ""
        layer_id = self._owner_cache.get(module)
        if layer_id is None:
            layer_id = self._owner_cache[module] = _LAYER_ID[
                layer_of_module(module)
            ]
        slot = self.event_slot
        if slot < 0:
            self._append(layer_id, ended - seconds, ended, self.run_idx)
        else:
            self.layer[slot] = layer_id
            self.start[slot] = ended - seconds
            self.end[slot] = ended
            self.event_slot = -1

    def wrap_engine_run(self, fn: Callable) -> Callable:
        """``Simulator.run``: attach this profiler, open the run span."""
        tracer = self
        sim_layer = _LAYER_ID["sim"]

        @functools.wraps(fn)
        def run(engine, *args, **kwargs):
            if engine.profiler is None:
                engine.attach_profiler(tracer)
            idx = tracer._open(sim_layer)
            outer = tracer.run_idx
            tracer.run_idx = idx
            tracer.event_slot = -1
            try:
                return fn(engine, *args, **kwargs)
            finally:
                tracer.run_busy_s += tracer._close(idx)
                tracer.run_idx = outer
                tracer.event_slot = -1

        return run

    # ------------------------------------------------------------------
    # Hand-off between processes
    # ------------------------------------------------------------------
    def payload(self) -> Dict[str, Any]:
        return {
            "pid": self.pid,
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "calls": {key: cell[0] for key, cell in self.calls.items()},
            "link_changes": self.link_changes,
            "graph_hashes": self.graph_hashes,
            "greedy_calls": self.greedy_calls,
            "crossings": sum(self.crossings.values()),
            "run_busy_s": self.run_busy_s,
        }

    def dump_if_worker(self) -> None:
        """In a forked worker, write every span recorded so far."""
        if self.pid != self.main_pid:
            path = os.path.join(self.dump_dir, f"worker-{self.pid}.pkl")
            with open(path, "wb") as handle:
                pickle.dump(self.payload(), handle)


def load_worker_dumps(dump_dir: str) -> List[Dict[str, Any]]:
    """Every worker payload written under ``dump_dir`` (files removed)."""
    payloads = []
    for path in sorted(glob.glob(os.path.join(dump_dir, "worker-*.pkl"))):
        with open(path, "rb") as handle:
            payloads.append(pickle.load(handle))
        os.remove(path)
    return payloads


def install(dump_dir: str) -> Tracer:
    """Wrap every layer boundary; returns the process's tracer."""
    from repro.core.algorithm1 import Algorithm1
    from repro.core.algorithm2 import Algorithm2
    from repro.core.coloring import greedy
    from repro.core.coloring.session import ColoringSession
    from repro.core.doorway import DoorwaySet
    from repro.core.fork_collection import ForkProtocol
    from repro.metrics.collector import MetricsCollector
    from repro.metrics.safety import SafetyMonitor
    from repro.net.channel import ChannelLayer
    from repro.net.linklayer import LinkLayer
    from repro.net.topology import DynamicTopology
    from repro.runtime.node import NodeHarness
    from repro.runtime.simulation import Simulation
    from repro.sim.engine import Simulator
    from repro.sim.sharded import ShardedEngine

    tracer = Tracer(dump_dir)
    os.register_at_fork(after_in_child=tracer.after_fork_in_child)

    hooks = (
        (ChannelLayer, "channel", ("send", "broadcast", "link_down")),
        (LinkLayer, "linklayer", ("deliver",)),
        (NodeHarness, "runtime", (
            "on_message", "on_link_up", "on_link_down", "become_hungry",
            "start_eating",
        )),
        (DynamicTopology, "topology", (
            "set_positions", "reposition", "set_position",
        )),
        (Algorithm2, "forks", (
            "on_hungry", "on_exit_cs", "on_message", "on_link_up",
            "on_link_down",
        )),
        (ForkProtocol, "forks", (
            "start_collection", "recheck", "request_low_forks",
            "request_high_forks", "handle_request", "handle_fork",
            "send_fork", "release_high_forks", "grant_suspended",
            "clear_requests", "forget_peer",
        )),
        (Algorithm1, "doorway", (
            "on_hungry", "on_exit_cs", "on_message", "on_link_up",
            "on_link_down",
        )),
        (DoorwaySet, "doorway", (
            "start_entry", "abort_entry", "exit", "exit_all", "note_cross",
            "note_exit", "on_message", "on_link_down",
            "on_new_neighbor_while_static", "on_hello", "retry_pending",
        )),
        (ColoringSession, "coloring", (
            "begin", "abort", "remove_peer", "on_peer_message",
        )),
        (SafetyMonitor, "metrics", ("note_eating_start", "on_link_event")),
        (MetricsCollector, "metrics", (
            "note_hungry", "note_demotion", "note_eat_start", "note_think",
            "note_crash",
        )),
    )
    for cls, layer, names in hooks:
        for name in names:
            key = f"{cls.__name__}.{name}"
            setattr(cls, name, tracer.wrap(getattr(cls, name), layer, key))

    def count_links(_linklayer, diff) -> None:
        tracer.link_changes += len(diff.added) + len(diff.removed)

    LinkLayer.apply_diff = tracer.wrap(
        LinkLayer.apply_diff, "linklayer", "LinkLayer.apply_diff",
        observe=count_links,
    )

    def count_graph(edges, _node_id) -> None:
        tracer.greedy_calls += 1
        tracer.graph_hashes.add(hash(edges))

    # GreedySession looks the function up as a module global.
    greedy.greedy_color_graph = tracer.wrap(
        greedy.greedy_color_graph, "coloring", "greedy_color_graph",
        observe=count_graph,
    )

    def after_simulation_run(simulation, *_args, **_kwargs) -> None:
        tracer.crossings[id(simulation)] = (
            simulation.mobility.stats()["crossing_events"]
        )
        tracer.dump_if_worker()

    Simulation.run = tracer.wrap(
        Simulation.run, "runtime", "Simulation.run",
        after=after_simulation_run,
    )
    Simulator.run = tracer.wrap_engine_run(Simulator.run)
    ShardedEngine.run = tracer.wrap(
        ShardedEngine.run, "sharded", "ShardedEngine.run"
    )
    return tracer


def analyse(payloads: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-layer self time and entry counts over every process's spans.

    A span's self time is its duration minus its direct children's;
    an *entry* is a span whose parent belongs to another layer (or
    that has none).  Also returns the integrity figures the benchmark
    checks: open spans, negative self times, and per-process root time
    (which the self times must sum to).
    """
    self_s = [0.0] * len(LAYERS)
    entries = [0] * len(LAYERS)
    open_spans = 0
    worst_negative = 0.0
    roots = []
    spans = 0
    for payload in payloads:
        layer = payload["layer"]
        start = payload["start"]
        end = payload["end"]
        parent = payload["parent"]
        count = len(layer)
        spans += count
        child = array("d", bytes(8 * count))
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        root_s = 0.0
        for i in range(count):
            if end[i] == 0.0:
                open_spans += 1
                continue
            duration = end[i] - start[i]
            own = duration - child[i]
            worst_negative = min(worst_negative, own)
            lid = layer[i]
            self_s[lid] += own
            p = parent[i]
            if p < 0:
                root_s += duration
                entries[lid] += 1
            elif layer[p] != lid:
                entries[lid] += 1
        roots.append(root_s)
    return {
        "self_s": dict(zip(LAYERS, self_s)),
        "entries": dict(zip(LAYERS, entries)),
        "spans": spans,
        "open_spans": open_spans,
        "worst_negative_self_s": worst_negative,
        "root_s": roots,
    }
