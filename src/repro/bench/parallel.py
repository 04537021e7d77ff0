"""Process fan-out for experiment cells: one worker, one map.

Every experiment in :mod:`repro.bench.harness` is a matrix of
independent deterministic cells addressed as ``(experiment, params)``
— the simulated property the paper's Dummynet testbed had physically:
each (seed, scenario) run is isolated, so runs can execute anywhere in
any order.  ``python -m repro.bench`` and :mod:`repro.sweep` both fan
cells out through this module with supervised child processes
(:mod:`repro.supervise`):

* :func:`run_cell` runs one cell to completion, under its own
  :class:`~repro.metrics.MetricsCollector` when metrics are requested;
* :func:`pool_map` returns results **in input order**
  (``supervised_map`` preserves it), never in completion order, so a
  caller that enumerates cells in a fixed order merges to the same
  bytes at any job count;
* virtual-time results and metrics snapshots contain no wall-clock
  values, so the merged document is byte-identical whatever ``jobs``
  was — CI diffs serial against ``--jobs 4`` to gate this;
* a worker that crashes outright (``os._exit``, a signal) no longer
  hangs or poisons the whole fan-out: the supervisor reports *which*
  cell died and with what exit code, and callers that opt into a retry
  policy (``repro.sweep run --supervise``) get bounded deterministic
  retries plus quarantine instead of a lost run.

Workers inherit the parent's environment (``REPRO_FULL`` scale
switching works unchanged).  The ``fork`` start method is preferred
(cheap, no re-import); ``spawn`` platforms work too since a cell
crosses the process boundary as plain ``(experiment, params-JSON)``
strings — no callables.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..metrics import MetricsCollector
from ..supervise import SupervisePolicy, supervised_map
from ..supervise.executor import SuperviseError
from . import harness

CellResult = Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]

# pool_map's default stance: no retries, no deadline — identical
# semantics to the old bare Pool.map, plus crash attribution
_STRICT = SupervisePolicy(max_attempts=1)


class CellError(RuntimeError):
    """A bench/sweep cell failed; carries the cell identity and params."""


def run_cell(item: Tuple[str, str, bool]) -> CellResult:
    """Worker body: run one ``(experiment, params-JSON, with_metrics)``
    cell and return its rows and metrics snapshots as plain data."""
    experiment, params_json, with_metrics = item
    params = json.loads(params_json)
    runs: List[Dict[str, Any]] = []
    try:
        if with_metrics:
            with MetricsCollector() as collector:
                rows = harness.run_sweep_cell(experiment, params)
            runs = collector.runs
        else:
            rows = harness.run_sweep_cell(experiment, params)
    except Exception as exc:
        from ..sweep.spec import cell_id  # lazy: repro.sweep imports this module

        # keep the failing cell's identity in the parent traceback
        # instead of a bare multiprocessing stack
        raise CellError(f"cell {cell_id(experiment, params)} failed: {exc!r}") from exc
    return [row.to_jsonable() for row in rows], runs


def pool_map(
    fn: Callable,
    items: Sequence,
    jobs: int,
    task_ids: Optional[Sequence[str]] = None,
) -> List:
    """Order-preserving supervised process map under a concurrency cap.

    The one fan-out primitive: ``python -m repro.bench`` shards default
    matrix cells with it and :mod:`repro.sweep` shards dirty sweep
    cells with it.  ``jobs <= 1`` runs in-process; results always come
    back in *input* order (never completion order), which is what makes
    every merged document byte-identical to its serial counterpart.
    ``fn`` must be a module-level callable and ``items`` plain data so
    spawn-based platforms can address the work.

    Failures are strict here (no retry — the deterministic simulation
    would fail identically): the first failing task raises a
    :class:`SuperviseError` naming the task and carrying the child's
    traceback or exit code.  Callers that want retry/quarantine call
    :func:`repro.supervise.supervised_map` with their own policy.
    """
    if jobs <= 1 or not items:
        return [fn(item) for item in items]
    outcome = supervised_map(
        fn, items, jobs=jobs, policy=_STRICT, task_ids=task_ids
    )
    if outcome.quarantined:
        first = next(
            rec for rec in outcome.manifest if rec["outcome"] == "quarantined"
        )
        detail = first["attempts"][-1]["detail"]
        raise SuperviseError(
            f"worker for task {first['task']} failed "
            f"({len(outcome.quarantined)} of {len(items)} tasks lost): {detail}"
        )
    return outcome.results
