"""Chaos self-test: prove the supervision stack actually recovers.

``python -m repro.supervise.selftest`` injects every failure mode the
execution layer claims to survive — worker crashes, hangs, persistent
failures, corrupted cache entries, and a livelocked kernel — and
asserts the documented recovery behaviour:

1. **sweep chaos** — a four-cell pingpong sweep where a seeded victim
   crashes once (must recover on retry), a second hangs once (must be
   killed and recover), and a third crashes on *every* attempt (must be
   quarantined after ``max_attempts``, demonstrating bounded retry).
   The surviving cells must be byte-identical to an uninjected run's,
   and the failure manifest must list each fault with its outcome.
2. **corrupt cache** — a cache entry is overwritten with garbage, a
   second with a truncated copy; the resume run must log a miss,
   recompute both, overwrite the bad entries, and reproduce the
   document byte-for-byte.
3. **kernel watchdog** — a planted zero-delay livelock and an event
   budget overrun must both raise :class:`WatchdogExpired`.

Victim cells are chosen by the same SHA-256 stream-derivation
discipline ``repro.faults`` and ``Kernel.rng`` use, so the chaos plan
is a pure function of the seed and the test is reproducible.

Exit status 0 means every injected fault was detected and recovered;
CI runs this as the ``supervise-chaos`` job.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import tempfile
from pathlib import Path
from typing import Callable, List

from ..simkernel import Kernel, WatchdogExpired
from ..sweep import SweepCache, dumps_result, run_sweep, spec_from_dict
from . import SupervisePolicy

SEED = 2005  # the paper's year; any fixed value works

CHAOS_SPEC = {
    "name": "chaos-selftest",
    "sweeps": [
        {
            "experiment": "pingpong",
            "matrix": {"protocol": ["tcp", "sctp"], "loss": [0.0, 0.01]},
            "params": {"size": 512, "iterations": 2},
        }
    ],
}


def _pick_victims(cell_ids: List[str], n: int) -> List[str]:
    """The ``n`` seeded victim cells, via the faults stream discipline."""
    ranked = sorted(
        cell_ids,
        key=lambda cid: hashlib.sha256(f"{SEED}:victim:{cid}".encode()).hexdigest(),
    )
    return ranked[:n]


def check_sweep_chaos() -> List[str]:
    """Crash, hang, and persistent-crash victims in one supervised sweep."""
    failures: List[str] = []
    spec = spec_from_dict(CHAOS_SPEC)
    reference = run_sweep(spec, cache=None)
    cell_ids = [cell.id for cell in spec.cells]
    crash_victim, hang_victim, lost_victim = _pick_victims(cell_ids, 3)
    policy = SupervisePolicy(
        max_attempts=2,
        heartbeat_s=0.05,
        hang_timeout_s=1.0,
        backoff_base_s=0.01,
        backoff_max_s=0.05,
        seed=SEED,
        chaos={
            crash_victim: ("crash",),  # attempt 2 runs clean -> recovered
            hang_victim: ("hang",),  # killed, attempt 2 clean -> recovered
            lost_victim: ("crash", "crash"),  # every attempt -> quarantined
        },
    )
    result = run_sweep(spec, jobs=2, cache=None, supervise=policy)

    if result.quarantined != [lost_victim]:
        failures.append(
            f"expected exactly {lost_victim!r} quarantined, got {result.quarantined}"
        )
    outcomes = {rec["cell"]: rec for rec in result.manifest}
    for victim, want_outcome, want_first in (
        (crash_victim, "recovered", "crash"),
        (hang_victim, "recovered", "hang"),
        (lost_victim, "quarantined", "crash"),
    ):
        rec = outcomes.get(victim)
        if rec is None:
            failures.append(f"manifest is missing victim {victim!r}")
            continue
        if rec["outcome"] != want_outcome:
            failures.append(
                f"{victim}: expected outcome {want_outcome!r}, got {rec['outcome']!r}"
            )
        if rec["attempts"][0]["outcome"] != want_first:
            failures.append(
                f"{victim}: expected first attempt {want_first!r}, "
                f"got {rec['attempts'][0]['outcome']!r}"
            )
    if len(outcomes) != 3:
        failures.append(f"expected 3 manifest records, got {len(outcomes)}")

    # partial-result salvage: every surviving cell byte-identical to the
    # uninjected run's version of that cell
    ref_cells = {cell["id"]: cell for cell in reference.doc["cells"]}
    got_cells = {cell["id"]: cell for cell in result.doc["cells"]}
    expected_survivors = [cid for cid in cell_ids if cid != lost_victim]
    if sorted(got_cells) != sorted(expected_survivors):
        failures.append(
            f"expected surviving cells {expected_survivors}, got {sorted(got_cells)}"
        )
    for cid in expected_survivors:
        if cid in got_cells and json.dumps(
            got_cells[cid], sort_keys=True
        ) != json.dumps(ref_cells[cid], sort_keys=True):
            failures.append(f"surviving cell {cid} differs from the uninjected run")
    if "failures" not in result.doc:
        failures.append("salvaged document is missing its 'failures' manifest")

    # the same sweep without injection must carry no failure manifest and
    # match the reference document byte for byte
    clean = run_sweep(spec, jobs=2, cache=None, supervise=policy_without_chaos(policy))
    if dumps_result(clean.doc) != dumps_result(reference.doc):
        failures.append("unfailed supervised run is not byte-identical to plain run")
    return failures


def policy_without_chaos(policy: SupervisePolicy) -> SupervisePolicy:
    return SupervisePolicy(
        max_attempts=policy.max_attempts,
        heartbeat_s=policy.heartbeat_s,
        hang_timeout_s=policy.hang_timeout_s,
        backoff_base_s=policy.backoff_base_s,
        backoff_max_s=policy.backoff_max_s,
        seed=policy.seed,
    )


def check_corrupt_cache() -> List[str]:
    """Garbage and truncated cache entries must be logged misses."""
    failures: List[str] = []
    spec = spec_from_dict(CHAOS_SPEC)
    with tempfile.TemporaryDirectory(prefix="chaos-cache-") as tmp:
        cache = SweepCache(Path(tmp) / "cache")
        cold = run_sweep(spec, cache=cache)
        entries = sorted(cache.root.glob("*.json"))
        if len(entries) != len(spec.cells):
            return [f"expected {len(spec.cells)} cache entries, got {len(entries)}"]
        entries[0].write_text("{ this is not json", encoding="utf-8")
        text = entries[1].read_text(encoding="utf-8")
        entries[1].write_text(text[: len(text) // 2], encoding="utf-8")

        records: List[logging.LogRecord] = []
        handler = logging.Handler()
        handler.emit = records.append  # type: ignore[method-assign]
        cache_log = logging.getLogger("repro.sweep.cache")
        cache_log.addHandler(handler)
        try:
            warm = run_sweep(spec, cache=cache)
        finally:
            cache_log.removeHandler(handler)

        if len(warm.executed) != 2:
            failures.append(
                f"expected 2 recomputed cells after corruption, got {warm.executed}"
            )
        if len(records) != 2:
            failures.append(f"expected 2 corruption warnings, got {len(records)}")
        if dumps_result(warm.doc) != dumps_result(cold.doc):
            failures.append("document after corruption recovery is not byte-identical")
        # the bad entries must have been overwritten with good ones
        final = run_sweep(spec, cache=cache)
        if final.executed:
            failures.append(
                f"corrupt entries were not overwritten: recomputed {final.executed}"
            )
    return failures


def check_kernel_watchdog() -> List[str]:
    """A planted livelock and an event-budget overrun must both trip."""
    failures: List[str] = []

    kernel = Kernel(seed=1)

    def livelock() -> None:
        kernel.post_after(0, livelock)

    kernel.post_after(0, livelock)
    kernel.arm_watchdog(max_stall_events=5000)
    try:
        kernel.run()
        failures.append("livelock did not trip the stall watchdog")
    except WatchdogExpired as err:
        if "stalled" not in str(err) or "livelock" not in str(err):
            failures.append(f"stall diagnostic is not actionable: {err}")

    kernel2 = Kernel(seed=1)

    def forever() -> None:
        kernel2.post_after(10, forever)

    kernel2.post_after(0, forever)
    kernel2.arm_watchdog(max_events=1000)
    try:
        kernel2.run()
        failures.append("unbounded run did not trip the event-budget watchdog")
    except WatchdogExpired as err:
        if "event budget" not in str(err):
            failures.append(f"event-budget diagnostic is not actionable: {err}")
    return failures


CHECKS: List[Callable[[], List[str]]] = [
    check_sweep_chaos,
    check_corrupt_cache,
    check_kernel_watchdog,
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.supervise.selftest",
        description="inject crashes/hangs/corruption and assert recovery",
    )
    parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING)
    all_failures: List[str] = []
    for check in CHECKS:
        name = check.__name__
        failures = check()
        status = "ok" if not failures else f"FAILED ({len(failures)})"
        print(f"{name}: {status}")
        for failure in failures:
            print(f"  - {failure}")
        all_failures.extend(failures)
    if all_failures:
        print(f"\nchaos selftest FAILED: {len(all_failures)} assertion(s)")
        return 1
    print("\nchaos selftest OK: every injected fault was detected and recovered")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
