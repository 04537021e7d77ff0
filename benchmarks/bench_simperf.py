"""Simulator perf-regression microbenchmarks (wall-clock, not virtual).

Unlike every other bench in this directory — which reports *virtual-time*
results next to the paper's figures — this suite measures how fast the
simulator itself executes, and guards the hot-path optimisations
(``Kernel.post_at``, O(1) live-timer accounting, lazy-deletion heap
compaction, slotted packet/chunk objects) against silent regression:

* ``kernel_events``   — events/sec through a bare kernel (post_after chain)
* ``timer_churn``     — schedule+cancel/sec (exercises heap compaction)
* ``link_packets``    — packets/sec through a saturated Link
* ``fig8_cell``       — wall seconds for one end-to-end fig8 matrix cell
                        (both protocols, 16 KiB ping-pong)
* ``large_world``     — events/sec on a 16-rank, 4-pod halo-exchange
                        world (multi-hop switching across pod trunks)

Run standalone (pytest never collects this file; it has no test_*
functions)::

    PYTHONPATH=src python benchmarks/bench_simperf.py --json BENCH_simperf.json
    PYTHONPATH=src python benchmarks/bench_simperf.py \
        --baseline benchmarks/simperf_baseline.json

Scores are *normalized by a calibration loop* (a fixed pure-Python
workload timed on the same machine in the same process), so the
committed baseline gates relative simulator efficiency, not absolute
hardware speed — a CI runner half as fast as the baseline machine is
half as fast at the calibration loop too, and the ratio cancels.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict

from repro.core.world import World, WorldConfig
from repro.network.link import Link
from repro.network.packet import Packet
from repro.simkernel import Kernel
from repro.workloads.halo import make_halo
from repro.workloads.mpbench import make_pingpong

SCHEMA = 1
LIMIT_NS = 20_000_000_000_000


# ---------------------------------------------------------------------------
# calibration: fixed pure-Python work, scores hardware + interpreter speed
# ---------------------------------------------------------------------------
def _calibration_ops_per_sec(ops: int = 400_000) -> float:
    acc = 0
    start = time.perf_counter()
    for i in range(ops):
        acc = (acc + i * 31) % 1_000_003
    elapsed = time.perf_counter() - start
    assert acc >= 0
    return ops / elapsed


# ---------------------------------------------------------------------------
# microbenchmarks — each returns (units_done, wall_seconds)
# ---------------------------------------------------------------------------
def bench_kernel_events(n_events: int = 150_000):
    """Events/sec through the kernel's fire-and-forget scheduling path.

    Falls back to ``call_after`` on revisions that predate ``post_after``
    so the harness can bisect across the optimisation boundary.
    """
    kernel = Kernel(seed=1)
    schedule = getattr(kernel, "post_after", kernel.call_after)
    remaining = [n_events]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            schedule(1, tick)

    schedule(1, tick)
    start = time.perf_counter()
    kernel.run()
    return n_events, time.perf_counter() - start


def bench_timer_churn(n_timers: int = 60_000):
    """Schedule+cancel/sec: the retransmission-timer pattern that makes
    lazy deletion and compaction earn their keep."""
    kernel = Kernel(seed=1)
    start = time.perf_counter()
    wave = 2_000
    for base in range(0, n_timers, wave):
        timers = [
            kernel.call_after(1_000_000 + base + i, _noop) for i in range(wave)
        ]
        for timer in timers:
            timer.cancel()
    kernel.run()
    return n_timers, time.perf_counter() - start


def _noop() -> None:
    return None


def bench_link_packets(n_packets: int = 40_000):
    """Packets/sec through a saturated link (tx-complete + prop-delay
    events per packet — the per-packet network hot path)."""
    kernel = Kernel(seed=1)
    done = [0]

    def sink(packet: Packet) -> None:
        done[0] += 1
        if done[0] < n_packets:
            link.send(packet)

    link = Link(
        kernel, "bench", bandwidth_bps=1_000_000_000, prop_delay_ns=1_000, sink=sink
    )
    start = time.perf_counter()
    # keep a small pipeline in flight so the link never idles
    for _ in range(8):
        link.send(
            Packet(src="10.0.0.1", dst="10.0.0.2", proto="bench", payload=None, wire_size=1400)
        )
    kernel.run()
    return done[0], time.perf_counter() - start


def bench_fig8_cell(size: int = 16384, iterations: int = 8):
    """One end-to-end fig8 matrix cell: both stacks, 16 KiB ping-pong.

    The unit reported is *kernel events*, so the score is directly the
    simulator's end-to-end events/sec on real protocol traffic.
    """
    events = 0
    start = time.perf_counter()
    for rpi in ("tcp", "sctp"):
        world = World(WorldConfig(n_procs=2, rpi=rpi, seed=1))
        world.run(make_pingpong(size, iterations), limit_ns=LIMIT_NS)
        events += world.kernel.events_processed
    return events, time.perf_counter() - start


def bench_large_world(n_procs: int = 16, pods: int = 4, size: int = 4096, iterations: int = 3):
    """A large pod-structured world: 16-rank halo exchange across 4 pod
    switches and their trunk mesh.  Every host is busy every iteration,
    so the score covers multi-hop switching and world construction that
    the 2-rank cells never reach.
    """
    start = time.perf_counter()
    world = World(WorldConfig(n_procs=n_procs, rpi="sctp", seed=1, n_pods=pods))
    world.run(make_halo(size, iterations), limit_ns=LIMIT_NS)
    return world.kernel.events_processed, time.perf_counter() - start


BENCHES: Dict[str, Callable] = {
    "kernel_events": bench_kernel_events,
    "timer_churn": bench_timer_churn,
    "link_packets": bench_link_packets,
    "fig8_cell": bench_fig8_cell,
    "large_world": bench_large_world,
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------
def run_suite(repeats: int = 3) -> Dict:
    """Run every bench ``repeats`` times, keep the best rate of each."""
    calibration = max(_calibration_ops_per_sec() for _ in range(repeats))
    benches: Dict[str, Dict[str, float]] = {}
    for name, fn in BENCHES.items():
        best_rate = 0.0
        best_seconds = float("inf")
        units = 0
        for _ in range(repeats):
            done, seconds = fn()
            units = done
            best_seconds = min(best_seconds, seconds)
            best_rate = max(best_rate, done / seconds)
        benches[name] = {
            "units": units,
            "seconds": best_seconds,
            "per_sec": best_rate,
            # hardware-independent score: simulator rate relative to the
            # same machine's pure-Python calibration rate
            "normalized": best_rate / calibration,
        }
    return {
        "schema": SCHEMA,
        "calibration_ops_per_sec": calibration,
        "benches": benches,
    }


def check_regression(current: Dict, baseline: Dict, max_regression: float) -> list[str]:
    """Normalized-score regressions beyond the threshold, as messages."""
    failures = []
    for name, base in baseline.get("benches", {}).items():
        cur = current["benches"].get(name)
        if cur is None:
            failures.append(f"{name}: present in baseline but not in current run")
            continue
        floor = base["normalized"] * (1.0 - max_regression)
        if cur["normalized"] < floor:
            failures.append(
                f"{name}: normalized score {cur['normalized']:.4f} is "
                f"{1 - cur['normalized'] / base['normalized']:.0%} below baseline "
                f"{base['normalized']:.4f} (allowed: {max_regression:.0%})"
            )
    return failures


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", default=None, help="write results JSON")
    parser.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="gate normalized scores against this committed baseline",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.10, metavar="FRAC",
        help="fail if any normalized score drops more than FRAC below baseline",
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N timing")
    parser.add_argument(
        "--write-baseline", metavar="PATH", default=None,
        help="write this run's results as the new committed baseline",
    )
    args = parser.parse_args(argv)

    doc = run_suite(repeats=max(1, args.repeats))
    print(f"calibration: {doc['calibration_ops_per_sec']:,.0f} ops/s")
    for name, res in doc["benches"].items():
        print(
            f"  {name:<14} {res['per_sec']:>12,.0f} /s"
            f"  ({res['units']:,} units in {res['seconds']:.3f}s,"
            f" normalized {res['normalized']:.4f})"
        )
    for path in (args.json, args.write_baseline):
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
            print(f"wrote {path}")
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
        failures = check_regression(doc, baseline, args.max_regression)
        if failures:
            print("PERF REGRESSION:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(f"perf gate OK (no normalized score >{args.max_regression:.0%} below baseline)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
