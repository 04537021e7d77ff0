"""Workload generation: a pure function of (workload, seed).

Each workload is a list of :class:`Sim` — one ``WorldConfig`` plus one
app built by the public ``make_*`` builders — which together make one
*pass*.  Nothing here measures anything; the simulator only ever sees
the generated configs and apps.

* ``pingpong`` — Fig. 8 / Table 1 slice: 2 ranks, TCP and SCTP, clean
  link, one world per Fig. 8 message size (1 B to 128 KiB).  Per-packet
  data path; almost no loss recovery or middleware queueing.
* ``farm`` — Figs. 10-12 slice: 8 ranks, fanout 10, 30 KiB tasks, 1%
  Bernoulli loss, on TCP, 10-stream SCTP and 1-stream SCTP, two worlds
  (two loss patterns) per stack.  Middleware
  progression, matching, blob slicing and loss recovery.
* ``pods`` — 16 ranks on 4 pods, a small ring halo on both stacks, over
  several worlds.  Connection/association set-up (120 per stack per
  world), multi-hop switching, and world construction.

The seed moves each world's RNG seed (ISS, verification tags, loss
pattern) and jitters message sizes *downwards* by at most 1/16, which
keeps every size on the same side of the 64 KiB eager limit, so the
amount of work per pass stays close across seeds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.rpi.base import RPI_STAT_FIELDS
from repro.core.world import WorldConfig, WorldResult
from repro.transport.sctp.association import ASSOC_STAT_FIELDS
from repro.transport.tcp.connection import CONN_STAT_FIELDS
from repro.workloads.farm import FarmParams, FarmResult, make_farm
from repro.workloads.halo import make_halo
from repro.workloads.mpbench import make_pingpong

WORKLOADS = ("pingpong", "farm", "pods")

# virtual-time cap per simulation: every workload ends far below it, so
# reaching it means the simulation stopped progressing
LIMIT_NS = 600 * 1_000_000_000

# Fig. 8 message sizes (bytes), 1 B to 128 KiB
FIG8_SIZES = (1, 1024, 4096, 8192, 16384, 22528, 32768, 65536, 98302, 131069)
PINGPONG_ITERATIONS = 5

FARM_TASKS = 70
FARM_STACKS = (("tcp", 10), ("sctp", 10), ("sctp", 1))
FARM_WORLDS_PER_STACK = 2

PODS_WORLDS_PER_STACK = 4
PODS_HALO_BYTES = 2048


@dataclass(frozen=True)
class Sim:
    """One simulation of a pass: a world config, an app, an invariant."""

    name: str
    config: WorldConfig
    app: Callable
    check: Callable[[WorldResult], Optional[str]]
    # calibration slices run after the simulation (see calibrate.py), set
    # so that calibration takes a fifth to a third of the measured time
    slices: int


def generate(workload: str, seed: int) -> List[Sim]:
    """The simulations of one pass of ``workload`` under ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"simbench:{workload}:{seed}")
    return {"pingpong": _pingpong, "farm": _farm, "pods": _pods}[workload](rng)


def _jitter(rng: random.Random, size: int) -> int:
    return size - rng.randrange(size // 16 + 1)


def _world_seed(rng: random.Random) -> int:
    return rng.randrange(1 << 31)


def _pingpong(rng: random.Random) -> List[Sim]:
    sims = []
    for rpi in ("tcp", "sctp"):
        for size in FIG8_SIZES:
            size = _jitter(rng, size)
            sims.append(
                Sim(
                    name=f"{rpi}/size={size}",
                    config=WorldConfig(n_procs=2, rpi=rpi, seed=_world_seed(rng)),
                    app=make_pingpong(size, PINGPONG_ITERATIONS, warmup=1),
                    check=_all_positive_ints,
                    slices=1 + size // 32768,
                )
            )
    return sims


def _farm(rng: random.Random) -> List[Sim]:
    params = FarmParams(num_tasks=FARM_TASKS, task_size=30 * 1024, fanout=10)
    return [
        Sim(
            name=f"{rpi}/streams={streams}/world={i}",
            config=WorldConfig(
                n_procs=8,
                rpi=rpi,
                seed=_world_seed(rng),
                loss_rate=0.01,
                num_streams=streams,
            ),
            app=make_farm(params),
            check=_farm_check,
            slices=20,
        )
        for rpi, streams in FARM_STACKS
        for i in range(FARM_WORLDS_PER_STACK)
    ]


def _pods(rng: random.Random) -> List[Sim]:
    sims = []
    for rpi in ("tcp", "sctp"):
        for i in range(PODS_WORLDS_PER_STACK):
            halo = _jitter(rng, PODS_HALO_BYTES)
            sims.append(
                Sim(
                    name=f"{rpi}/world={i}/halo={halo}",
                    config=WorldConfig(n_procs=16, n_pods=4, rpi=rpi, seed=_world_seed(rng)),
                    app=make_halo(halo, iterations=2),
                    check=_all_positive_ints,
                    slices=4,
                )
            )
    return sims


# -- invariants --------------------------------------------------------------
def _all_positive_ints(result: WorldResult) -> Optional[str]:
    """Every rank returned its measured virtual nanoseconds."""
    n = result.world.config.n_procs
    if len(result.results) != n:
        return f"{len(result.results)} results for {n} ranks"
    for rank, value in enumerate(result.results):
        if not isinstance(value, int) or value <= 0:
            return f"rank {rank} returned {value!r}"
    return None


def _farm_check(result: WorldResult) -> Optional[str]:
    """No task lost: the manager and the workers both account for all."""
    manager = result.results[0]
    if not isinstance(manager, FarmResult):
        return f"manager returned {manager!r}"
    total = manager.params.num_tasks
    if manager.tasks_done != total:
        return f"manager got {manager.tasks_done}/{total} results"
    if sum(manager.per_worker_tasks.values()) != total:
        return f"per-worker tally {manager.per_worker_tasks} != {total}"
    workers = result.results[1:]
    if any(not isinstance(w, int) for w in workers) or sum(workers) != total:
        return f"workers report {workers}, expected {total} in total"
    return None


# -- outputs -----------------------------------------------------------------
def fingerprint(result: WorldResult) -> str:
    """Digest of a simulation's virtual-time outputs.

    Covers the per-rank app results (farm ``tasks_done`` included),
    ``duration_ns`` and every transport counter of ``total_stats()``.
    Simulator-internal counts (events dispatched, heap compactions,
    progression-engine calls) stay out, so a pure speed change keeps the
    fingerprint.
    """
    world = result.world
    doc = {
        "results": [_plain(r) for r in result.results],
        "duration_ns": result.duration_ns,
        "total_ns": result.total_ns,
        "tcp": [dataclasses.asdict(ep.total_stats()) for ep in world.tcp_endpoints],
        "sctp": [dataclasses.asdict(ep.total_stats()) for ep in world.sctp_endpoints],
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _plain(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    return value


def counts(result: WorldResult) -> Dict[str, int]:
    """Exact per-layer work counts of one simulation (always-on stats)."""
    world = result.world
    out = {
        "simkernel.events": world.kernel.events_processed,
        "simkernel.heap_compactions": world.kernel.heap_compactions,
    }
    for prefix, fields, endpoints in (
        ("tcp", CONN_STAT_FIELDS, world.tcp_endpoints),
        ("sctp", ASSOC_STAT_FIELDS, world.sctp_endpoints),
    ):
        totals = [ep.total_stats() for ep in endpoints]
        for name in fields:
            out[f"{prefix}.{name}"] = sum(getattr(t, name) for t in totals)
    stats = [world.rpi_stats(rank) for rank in range(world.config.n_procs)]
    for name in RPI_STAT_FIELDS:
        out[f"rpi.{name}"] = sum(getattr(s, name) for s in stats)
    return out


def messages(sim_counts: Dict[str, int]) -> int:
    """MPI messages completed: eager + rendezvous + synchronous sends."""
    return sum(sim_counts.get(f"rpi.{name}", 0) for name in ("eager_sends", "rendezvous_sends", "ssends"))
