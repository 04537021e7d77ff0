"""Passes, host-time measurement, output checks and the per-layer trace.

A *pass* runs every simulation of a workload once, each in a fresh
``World``.  Per simulation it times construction (``setup_s``) and
``World.run`` (``run_s``) in host CPU seconds, scales both by the speed
of the calibration blocks run around it (see calibrate.py), checks the
workload invariant, and fingerprints the virtual-time outputs.  A simulation
fails if it raises (deadlock included), hits ``limit_ns``, breaks the
invariant, changes fingerprint between passes, or differs from the
stored reference for the seed.

A traced pass runs the same simulations under ``cProfile`` (enabled
around construction and ``World.run`` only) and sums self time by layer
package; exact call counts come from the profile's per-function call
numbers and from the always-on stats.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.communicator import Communicator
from repro.core.world import World
from repro.metrics.registry import MetricsRegistry
from repro.network.host import Host
from repro.network.link import Link
from repro.util import blobs

from calibrate import SLICE_REFERENCE_S, time_slices
from workloads import LIMIT_NS, Sim, counts, fingerprint

# layer -> path fragment of its package, most specific first; anything
# else (stdlib, builtins, transport/base.py, this benchmark) is "other"
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("simkernel", "repro/simkernel/"),
    ("network", "repro/network/"),
    ("network", "repro/faults/"),
    ("tcp", "repro/transport/tcp/"),
    ("sctp", "repro/transport/sctp/"),
    ("rpi", "repro/core/rpi/"),
    ("core", "repro/core/"),
    ("blobs", "repro/util/blobs.py"),
    ("metrics", "repro/metrics/"),
    ("app", "repro/workloads/"),
)
LAYER_NAMES = (*dict.fromkeys(name for name, _ in LAYERS), "other")


def layer_of(filename: str) -> str:
    """The layer a profiled function's source file belongs to."""
    path = filename.replace(os.sep, "/")
    for name, fragment in LAYERS:
        if fragment in path:
            return name
    return "other"


@dataclass
class PassRecord:
    """One pass: summed host CPU times, per-sim outputs, failures."""

    setup_s: float = 0.0
    run_s: float = 0.0
    # the same sums with each simulation scaled by its calibration factor
    calibrated_setup_s: float = 0.0
    calibrated_run_s: float = 0.0
    factor: float = 1.0
    fingerprints: List[Optional[str]] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    profile: Optional[pstats.Stats] = None
    waitany_calls: int = 0


class Runner:
    """Runs passes of one workload and keeps its failure accounting."""

    def __init__(self, sims: List[Sim], reference: Optional[List[str]] = None) -> None:
        if reference is not None and len(reference) != len(sims):
            raise ValueError(f"reference has {len(reference)} entries for {len(sims)} sims")
        self.sims = sims
        self.reference = reference
        self.first: Optional[List[Optional[str]]] = None
        # slices of the calibration block before the first simulation and
        # after each one: fixed by the workload, never by a measurement
        self.block_slices = [sims[0].slices, *(sim.slices for sim in sims)]
        self.attempted = 0
        self.failed = 0

    def run_pass(self, traced: bool = False) -> PassRecord:
        """One pass over every simulation; ``traced`` profiles it.

        An untraced pass runs a calibration block before the first
        simulation and after each one; each simulation's times are scaled
        by the slice speed of the two blocks around it.
        """
        record = PassRecord()
        profiler = cProfile.Profile() if traced else None
        restore = _count_waitany(record) if traced else None
        times: List[Optional[Tuple[float, float]]] = []
        blocks: List[float] = []
        try:
            if not traced:
                blocks.append(time_slices(self.block_slices[0]))
            for i, sim in enumerate(self.sims):
                self.attempted += 1
                sim_times, digest, error = self._run_sim(sim, record, profiler)
                times.append(sim_times)
                if not traced:
                    blocks.append(time_slices(self.block_slices[i + 1]))
                record.fingerprints.append(digest)
                if error is None and self.first is not None and digest != self.first[i]:
                    error = f"fingerprint {digest} differs from first pass {self.first[i]}"
                if error is None and self.reference is not None and digest != self.reference[i]:
                    error = f"fingerprint {digest} differs from reference {self.reference[i]}"
                if error is not None:
                    self.failed += 1
                    record.failures.append(f"{sim.name}: {error}")
        finally:
            if restore is not None:
                restore()
        if self.first is None:
            self.first = record.fingerprints
        if blocks:
            self._calibrate(record, times, blocks)
        if profiler is not None:
            record.profile = pstats.Stats(profiler)
        return record

    def _calibrate(
        self, record: PassRecord, times: List[Optional[Tuple[float, float]]], blocks: List[float]
    ) -> None:
        n = self.block_slices
        record.factor = SLICE_REFERENCE_S * sum(n) / sum(blocks)
        for i, sim_times in enumerate(times):
            if sim_times is None:
                continue
            factor = SLICE_REFERENCE_S * (n[i] + n[i + 1]) / (blocks[i] + blocks[i + 1])
            record.calibrated_setup_s += sim_times[0] * factor
            record.calibrated_run_s += sim_times[1] * factor

    def _run_sim(
        self, sim: Sim, record: PassRecord, profiler: Optional[cProfile.Profile]
    ) -> Tuple[Optional[Tuple[float, float]], Optional[str], Optional[str]]:
        clock = time.process_time
        # a collection owed by earlier allocations would otherwise land in
        # whichever simulation happens to cross the threshold
        gc.collect()
        try:
            t0 = clock()
            if profiler is not None:
                profiler.enable()
            try:
                world = World(sim.config)
                t1 = clock()
                result = world.run(sim.app, limit_ns=LIMIT_NS)
            finally:
                if profiler is not None:
                    profiler.disable()
            t2 = clock()
        except Exception as exc:  # deadlock, limit_ns, or a simulator bug
            return None, None, f"{type(exc).__name__}: {exc}"
        record.setup_s += t1 - t0
        record.run_s += t2 - t1
        for name, value in counts(result).items():
            record.counts[name] = record.counts.get(name, 0) + value
        return (t1 - t0, t2 - t1), fingerprint(result), sim.check(result)


def _count_waitany(record: PassRecord) -> Callable[[], None]:
    """Count ``Communicator.waitany`` calls; returns the undo function.

    cProfile counts every resumption of a coroutine as a call, so the
    coroutine entry point is counted by a wrapper that hands back the
    original coroutine object (no extra frame while it runs).
    """
    original = Communicator.waitany

    def waitany(self, requests):
        record.waitany_calls += 1
        return original(self, requests)

    Communicator.waitany = waitany

    def restore() -> None:
        Communicator.waitany = original

    return restore


# -- profile reduction ---------------------------------------------------------
def layer_self_times(stats: pstats.Stats) -> Dict[str, float]:
    """Self seconds per layer; they sum to the profile's total."""
    out = dict.fromkeys(LAYER_NAMES, 0.0)
    for (filename, _line, _name), (_cc, _nc, tt, _ct, _callers) in stats.stats.items():
        out[layer_of(filename)] += tt
    return out


def call_count(stats: pstats.Stats, *functions: Callable) -> int:
    """Exact calls of the given functions, read from the profile."""
    total = 0
    for fn in functions:
        code = fn.__code__
        entry = stats.stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        if entry is not None:
            total += entry[1]
    return total


def entry_point_counts(stats: pstats.Stats) -> Dict[str, int]:
    """Calls into each layer's public entry points during a traced pass."""
    return {
        "network.link_sends": call_count(stats, Link.send),
        "network.host_delivers": call_count(stats, Host.deliver),
        "metrics.probe_calls": call_count(stats, MetricsRegistry.probe),
        "blobs.slice_calls": call_count(
            stats,
            blobs.RealBlob.slice,
            blobs.SyntheticBlob.slice,
            blobs.ChunkList.slice,
        ),
    }

