"""Command-line experiment runner: ``python -m repro.bench <experiment>``.

Runs one (or all) of the paper's experiments and prints the
paper-vs-measured table, without pytest.  Useful for quick interactive
exploration and for scripting sweeps.

    python -m repro.bench fig8
    python -m repro.bench table1 fig10
    python -m repro.bench all
    python -m repro.bench fig8 --metrics-json out.json
    python -m repro.bench chaos --jobs 4 --metrics-json out.json
    python -m repro.bench fig8 --profile
    REPRO_FULL=1 python -m repro.bench fig9

``--metrics-json PATH`` additionally enables the metrics registry for
every simulated world and writes one deterministic JSON document: per
experiment, the result rows plus one full metrics snapshot per world
run.  The document contains no wall-clock time and is byte-identical
across same-seed invocations (CI's determinism gate relies on this).

``--jobs N`` shards every experiment's default cell matrix across N
worker processes (each (protocol, loss, size, fanout) cell is an
isolated deterministic simulation).  Every run, ``--jobs 1`` included,
goes through the same worker and merges rows in cell enumeration order,
so the output — including ``--metrics-json`` — is byte-identical at any
job count (CI's parallel determinism gate relies on *this*).

``--profile`` wraps the run in :mod:`cProfile` and prints the top 20
functions by cumulative time, for hot-path hunts without ad-hoc
scripts.  With ``--jobs > 1`` only the parent process is profiled,
which is rarely what you want — profile serial runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ..sweep.spec import cell_id
from .harness import ExperimentRow, default_cells, format_table
from .parallel import pool_map, run_cell

# name -> title; "all" runs these in this order
EXPERIMENTS = {
    "fig8": "Fig. 8: ping-pong throughput (no loss)",
    "table1": "Table 1: ping-pong throughput under loss",
    "fig9": "Fig. 9: NPB class B Mop/s (8 procs)",
    "fig10": "Fig. 10: farm run times, fanout=1",
    "fig11": "Fig. 11: farm run times, fanout=10",
    "fig12": "Fig. 12: 10 streams vs 1 stream (SCTP)",
    "failover": "Multihoming: primary-path failure mid-run",
    "interleave": "RFC 8260: small-message latency under bulk",
    "chaos": "Chaos matrix: fault scenarios x both stacks",
}

METRICS_SCHEMA = 1


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the paper's experiments.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help=f"experiment names ({', '.join(EXPERIMENTS)}) or 'all'",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help="collect metrics snapshots and write a deterministic JSON "
        "document (rows + one snapshot per simulated world) to PATH",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="shard experiment cells across N worker processes; output "
        "(tables and metrics JSON) is byte-identical to a serial run",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top-20 cumulative functions",
    )
    return parser.parse_args(argv)


def _run(names: list[str], jobs: int, with_metrics: bool, doc: dict) -> None:
    """Run every default-matrix cell of ``names`` and print the tables."""
    cells = [(name, params) for name in names for params in default_cells(name)]
    items = [(name, json.dumps(params), with_metrics) for name, params in cells]
    started = time.time()  # repro: allow[AN101] — wall display only
    outputs = pool_map(
        run_cell, items, jobs, task_ids=[cell_id(name, params) for name, params in cells]
    )
    # wall time goes to stdout only: the JSON must be run-invariant
    elapsed = time.time() - started  # repro: allow[AN101] — wall display only
    merged: dict = {name: {"rows": [], "runs": []} for name in names}
    for (name, _params), (rows, runs) in zip(cells, outputs, strict=True):
        merged[name]["rows"].extend(rows)
        merged[name]["runs"].extend(runs)
    for name in names:
        title = EXPERIMENTS[name]
        if with_metrics:
            doc["experiments"][name] = {"title": title, **merged[name]}
        rows = [ExperimentRow.from_jsonable(d) for d in merged[name]["rows"]]
        print(format_table(title, rows))
        print()
    print(f"  [{', '.join(names)}: {elapsed:.1f}s wall, {jobs} job(s)]")


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}")
        return 2
    names = args.experiments or ["all"]
    if names == ["all"]:
        names = list(EXPERIMENTS)
    names = list(dict.fromkeys(names))  # a repeated name runs once
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}")
        print(f"available: {', '.join(EXPERIMENTS)}, all")
        return 2
    if args.metrics_json is not None:
        # fail before running minutes of experiments, not after; "a"
        # checks writability without emptying an existing document
        try:
            with open(args.metrics_json, "a", encoding="utf-8"):
                pass
        except OSError as err:
            print(f"cannot write metrics JSON to {args.metrics_json}: {err}")
            return 2
    profiler = None
    if args.profile:
        import cProfile

        if args.jobs > 1:
            print("note: --profile with --jobs > 1 profiles only the parent process")
        profiler = cProfile.Profile()
        profiler.enable()
    doc = {"schema": METRICS_SCHEMA, "experiments": {}}
    with_metrics = args.metrics_json is not None
    try:
        _run(names, args.jobs, with_metrics, doc)
    finally:
        if profiler is not None:
            import pstats

            profiler.disable()
            print()
            pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)
    if args.metrics_json is not None:
        with open(args.metrics_json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        print(f"metrics JSON written to {args.metrics_json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
