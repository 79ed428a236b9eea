"""The benchmark's workloads and the scenario each one builds.

Every workload is a closed loop in virtual time: each node is one
client that thinks (uniform 1-5 tu), requests the critical section,
eats (at most tau = 1 tu) and repeats.  nu = 1 and the radio range is
1.5 throughout.  Positions come from ``random.Random(seed)``; the
program only ever sees the finished :class:`ScenarioConfig`.

The configs leave every dual-path flag (``scheduler``,
``channel_per_message``, ``pooling``, ``mobility_fixed_step``) at its
shipped default, so deleting one of those paths needs no edit here.

This module imports nothing from ``repro`` at import time: the
benchmark's set-up clock must include those imports.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import List, Optional

#: Radio range and the waypoint movers' speed / pause ranges.
RADIO_RANGE = 1.5
SPEED_RANGE = (0.5, 1.2)
PAUSE_RANGE = (5.0, 20.0)


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    nodes: int
    side: float
    movers: int
    horizon: float
    shards: int
    #: Wall seconds one repetition takes on a 2-CPU x86 box (Python
    #: 3.11).  ``--seconds`` divided by this, rounded down, is how many
    #: independent inputs one run simulates: a constant, so the inputs
    #: a seed stands for never depend on how fast the machine is.
    nominal_rep_s: float


#: Why each workload exists: see README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("alg2-static", "alg2", 1000, 30.0, 0, 120.0, 1, 10.5),
        Workload("alg2-mobile", "alg2", 1000, 30.0, 300, 60.0, 1, 16.5),
        Workload(
            "alg1-greedy-static", "alg1-greedy", 500, 22.0, 0, 100.0, 1, 3.0
        ),
        Workload("alg2-sharded", "alg2", 5000, 67.0, 0, 30.0, 2, 11.0),
    )
}

#: Tiny variants for the benchmark's own smoke tests: same algorithms,
#: movers and sharding, a few dozen nodes and a short horizon.
SMOKE = {
    "alg2-static": dict(nodes=60, side=7.0, movers=0, horizon=20.0),
    "alg2-mobile": dict(nodes=60, side=7.0, movers=20, horizon=20.0),
    "alg1-greedy-static": dict(nodes=40, side=6.0, movers=0, horizon=30.0),
    "alg2-sharded": dict(nodes=120, side=11.0, movers=0, horizon=10.0),
}


def resolve(name: str, smoke: bool = False) -> Workload:
    """The named workload, shrunk to its smoke size when asked."""
    workload = WORKLOADS[name]
    if not smoke:
        return workload
    fields = dict(workload.__dict__)
    fields.update(SMOKE[name])
    fields["nominal_rep_s"] = 1.0
    return Workload(**fields)


def sub_seeds(seed: int, count: int) -> List[int]:
    """``count`` input seeds for one run; the first is ``seed`` itself."""
    seeds = [seed]
    for k in range(1, count):
        digest = hashlib.sha256(f"{seed}:{k}".encode()).digest()
        seeds.append(int.from_bytes(digest[:4], "big") >> 1)
    return seeds


def build_config(workload: Workload, seed: int):
    """The :class:`repro.ScenarioConfig` for one input seed."""
    from repro import ScenarioConfig, random_positions
    from repro.mobility.waypoint import RandomWaypoint

    rng = random.Random(seed)
    side = workload.side
    positions = random_positions(workload.nodes, side, side, rng)
    mobility_factory = None
    if workload.movers:
        movers = workload.movers

        def mobility_factory(node_id: int) -> Optional[RandomWaypoint]:
            if node_id < movers:
                return RandomWaypoint(
                    side, side, speed_range=SPEED_RANGE,
                    pause_range=PAUSE_RANGE,
                )
            return None

    return ScenarioConfig(
        positions=positions,
        radio_range=RADIO_RANGE,
        algorithm=workload.algorithm,
        seed=seed,
        think_range=(1.0, 5.0),
        # The loop starts with a think period like every later one, so
        # requests are spread from the start (see README.md).
        initial_delay_range=(1.0, 5.0),
        mobility_factory=mobility_factory,
        # Any two neighbours eating at once raises SafetyViolation.
        strict_safety=True,
    )


def build_engine(workload: Workload, config):
    """A ready-to-run engine: a Simulation, or a ShardedEngine."""
    if workload.shards > 1:
        from repro.sim.sharded import ShardedEngine

        return ShardedEngine(
            config,
            num_shards=workload.shards,
            workers=workload.shards,
            max_speed=SPEED_RANGE[1] if workload.movers else None,
        )
    from repro import Simulation

    return Simulation(config)
