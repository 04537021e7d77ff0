"""Supervised execution: watchdogs, deterministic retry, quarantine.

The paper's case for SCTP is a robustness argument — the transport that
keeps making progress under loss and path failure wins for MPI.  This
package holds the harness to the same standard: long multi-process runs
(sweeps, parallel DES) must survive a crashed worker, a hung worker, or
a corrupted cache entry the way an SCTP association survives a dead
path — degrade, retry, salvage, and keep the surviving results
byte-identical.

Three layers:

* :func:`supervised_map` (:mod:`repro.supervise.executor`) — the
  process fan-out primitive: per-attempt wall deadlines, crash detection
  (exit code), hang detection (heartbeat pipe), bounded retry with
  seeded deterministic exponential backoff, and quarantine of
  persistently failing tasks into a structured failure manifest.
  ``repro.bench.parallel.pool_map`` — the one cell fan-out of
  ``python -m repro.bench`` and ``repro.sweep`` — and supervised sweeps
  run through it.
* shard supervision in :mod:`repro.simkernel.pdes` — a dead or stalled
  PDES shard triggers terminate-and-reap of the whole cohort and a
  graceful degradation to the serial leg (``degraded: true``), whose
  output is byte-identical to a normal serial run by construction.
* the kernel progress watchdog (:meth:`repro.simkernel.Kernel.arm_watchdog`)
  — opt-in max-wall-seconds / max-events / virtual-time-stall limits
  that turn livelocks into actionable :class:`~repro.simkernel.kernel.WatchdogExpired`
  errors with a dump of the hot heap labels.

``python -m repro.supervise.selftest`` chaos-tests all three layers with
injected crashes, hangs, and cache corruption (CI job
``supervise-chaos``).
"""

from .executor import (
    CRASH,
    DEADLINE,
    ERROR,
    HANG,
    OK,
    SupervisedOutcome,
    SupervisePolicy,
    backoff_delay,
    current_attempt,
    supervised_map,
)

__all__ = [
    "CRASH",
    "DEADLINE",
    "ERROR",
    "HANG",
    "OK",
    "SupervisePolicy",
    "SupervisedOutcome",
    "backoff_delay",
    "current_attempt",
    "supervised_map",
]
