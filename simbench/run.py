"""Simulator benchmark: host time of three paper workloads, end to end
and layer by layer.

Run from the repository root::

    python3 simbench/run.py --workload pingpong --seed 0 --seconds 30 --trace 0

``--trace 0`` measures with no instrumentation and prints the end-to-end
metrics; ``--trace 1`` adds traced passes under cProfile and prints the
per-layer metrics.  Every run prints the exact work counts of one pass.
The last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See README.md beside this file for every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
REFERENCE_SEEDS = range(10)
MIN_PASSES = 5
MIN_TRACED_PASSES = 3


def _import_simulator() -> None:
    """Put the checkout's ``src`` on the path and load the simulator."""
    src = HERE.parent / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"simbench: cannot import the simulator from {src}: {exc}")
    # an installed copy elsewhere would be measured instead of this checkout
    if src not in Path(repro.__file__).resolve().parents:
        sys.exit(f"simbench: imported {repro.__file__}, not the checkout's {src}")


def load_reference(workload: str, seed: int) -> Optional[List[str]]:
    """Stored fingerprints of one pass, if the seed has a reference."""
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def update_reference() -> None:
    """Recompute the stored fingerprints for every workload and reference seed."""
    from measure import Runner
    from workloads import WORKLOADS, generate

    doc: Dict[str, Dict[str, List[str]]] = {}
    for workload in WORKLOADS:
        doc[workload] = {}
        for seed in REFERENCE_SEEDS:
            record = Runner(generate(workload, seed)).run_pass()
            if record.failures:
                sys.exit(f"simbench: {workload} seed {seed} failed: {record.failures}")
            doc[workload][str(seed)] = record.fingerprints
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def timed_passes(runner, seconds: float, traced: bool = False) -> list:
    """Passes until ``seconds`` of wall time are used, with a minimum count."""
    min_passes = MIN_TRACED_PASSES if traced else MIN_PASSES
    records = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records.append(runner.run_pass(traced=traced))
        elapsed = time.perf_counter() - start
        if len(records) >= min_passes and elapsed + (time.perf_counter() - t0) > seconds:
            return records


def end_to_end(records: list, msgs: int) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics of a set of untraced passes."""
    run_s = statistics.median(r.calibrated_run_s for r in records)
    return {
        "run_s": (run_s, "s"),
        "msgs_per_s": (msgs / run_s if run_s else 0.0, "1/s"),
        "setup_s": (statistics.median(r.calibrated_setup_s for r in records), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(untraced: list, traced: list, pass_counts: Dict[str, int]) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics: self times of the median traced pass plus counts."""
    from measure import LAYER_NAMES, entry_point_counts, layer_self_times

    run_s = statistics.median(r.calibrated_run_s for r in untraced)
    c = defaultdict(int, pass_counts)  # a failed simulation leaves counts out
    overhead_s = statistics.median(r.run_s for r in traced) - statistics.median(
        r.run_s for r in untraced
    )
    # the traced pass whose total is the median: its layers add up to it
    by_total = sorted(traced, key=lambda r: r.setup_s + r.run_s)
    median_pass = by_total[len(by_total) // 2]
    selfs = layer_self_times(median_pass.profile)
    calls = entry_point_counts(median_pass.profile)
    out: Dict[str, Tuple[float, str]] = {f"{name}.self_s": (selfs[name], "s") for name in LAYER_NAMES}
    out.update(
        {
            "simkernel.events": (c["simkernel.events"], "count"),
            "simkernel.ns_per_event": (run_s * 1e9 / max(1, c["simkernel.events"]), "ns"),
            "simkernel.heap_compactions": (c["simkernel.heap_compactions"], "count"),
            "network.link_sends": (calls["network.link_sends"], "count"),
            "network.host_delivers": (calls["network.host_delivers"], "count"),
            "tcp.segments_sent": (c["tcp.segments_sent"], "count"),
            "tcp.retransmitted_segments": (c["tcp.retransmitted_segments"], "count"),
            "tcp.rto_events": (c["tcp.rto_events"], "count"),
            "tcp.fast_retransmits": (c["tcp.fast_retransmits"], "count"),
            "sctp.packets_sent": (c["sctp.packets_sent"], "count"),
            "sctp.data_chunks_sent": (c["sctp.data_chunks_sent"], "count"),
            "sctp.sacks_received": (c["sctp.sacks_received"], "count"),
            "sctp.retransmitted_chunks": (c["sctp.retransmitted_chunks"], "count"),
            "sctp.gap_blocks_received": (c["sctp.gap_blocks_received"], "count"),
            "rpi.advance_calls": (c["rpi.advance_calls"], "count"),
            "rpi.units_sent": (c["rpi.units_sent"], "count"),
            "core.unexpected_messages": (c["rpi.unexpected_messages"], "count"),
            "core.waitany_calls": (median_pass.waitany_calls, "count"),
            "blobs.slice_calls": (calls["blobs.slice_calls"], "count"),
            "metrics.probe_calls": (calls["metrics.probe_calls"], "count"),
            "trace.profiled_s": (sum(selfs.values()), "s"),
            "trace.pass_s": (median_pass.setup_s + median_pass.run_s, "s"),
            "trace.overhead_s": (overhead_s, "s"),
        }
    )
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("pingpong", "farm", "pods"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-reference",
        action="store_true",
        help=f"rewrite {REFERENCE.name} from the current simulator, then exit",
    )
    args = parser.parse_args(argv)
    _import_simulator()
    if args.update_reference:
        update_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    from measure import Runner
    from workloads import generate, messages

    sims = generate(args.workload, args.seed)
    runner = Runner(sims, load_reference(args.workload, args.seed))
    warmup = runner.run_pass()
    budget = args.seconds / 2 if args.trace else args.seconds
    records = timed_passes(runner, budget)
    traced = timed_passes(runner, budget, traced=True) if args.trace else []
    failures = warmup.failures + [f for r in records + traced for f in r.failures]

    msgs = messages(warmup.counts)
    run_q1, _, run_q3 = statistics.quantiles([r.calibrated_run_s for r in records], n=4)
    raw_run_s = statistics.median(r.run_s for r in records)
    speed = statistics.median(r.factor for r in records)
    print(
        f"simbench {args.workload} seed={args.seed}: {len(sims)} simulations a pass, "
        f"{len(records)} timed passes (+1 warm-up, {len(traced)} traced)"
    )
    print(f"  run_s quartiles: {run_q1:.6f} .. {run_q3:.6f} s; {msgs} MPI messages a pass")
    print(f"  raw run_s median {raw_run_s:.6f} s; calibration factor median {speed:.4f}")
    metrics = end_to_end(records, msgs)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6f} {unit}")
    print(
        f"  {'fail_rate':<28} {runner.failed / runner.attempted:>16.6f} "
        f"({runner.failed} of {runner.attempted} simulations)"
    )
    for failure in failures[:20]:
        print(f"  FAILED {failure}", file=sys.stderr)
    print("  exact counts of one pass:")
    for name, value in sorted(warmup.counts.items()):
        print(f"    {name:<36} {value}")
    if args.trace:
        metrics = per_layer(records, traced, warmup.counts)
        print("  per-layer (median traced pass):")
        for name, (value, unit) in metrics.items():
            print(f"    {name:<36} {value:>16.6f} {unit}")

    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
