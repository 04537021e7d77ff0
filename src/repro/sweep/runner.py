"""Execute a sweep: cache lookup, dirty-cell fan-out, deterministic merge.

The runner is a thin deterministic pipeline:

1. digest every cell of the (already expanded and validated) spec;
2. satisfy what it can from the :class:`~repro.sweep.cache.SweepCache`
   (a corrupted entry is a logged miss, never an abort);
3. run the remaining *dirty* cells under a concurrency cap via
   :func:`repro.bench.parallel.pool_map` and its one cell worker
   :func:`~repro.bench.parallel.run_cell` — the same order-preserving
   supervised fan-out ``python -m repro.bench`` uses; with a
   :class:`~repro.supervise.SupervisePolicy` (``supervise=``) the cells
   additionally get per-attempt deadlines, crash/hang detection,
   bounded deterministic retry, and quarantine;
4. merge all rows back **in spec order**, never completion order, into
   one result document.  Quarantined cells are *salvaged around*: the
   surviving cells merge byte-identically to what an unfailed run
   would have produced for them, and the document carries a structured
   ``failures`` manifest instead of the run being lost.

Steps 2-3 are the only stateful parts; the merge is a pure function
(:func:`merge_cells`) of the spec and a ``{digest: rows}`` mapping, so
the merged document is byte-identical whether cells came from the
cache, a serial run, or a shuffled parallel completion — the property
CI's ``sweep-gate`` diffs for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..bench.parallel import pool_map, run_cell
from ..supervise import SupervisePolicy, supervised_map
from .cache import SweepCache
from .digest import canonical_json, cell_digest, code_version, current_scale
from .spec import SweepSpec

RESULT_SCHEMA = 1


@dataclass
class SweepRunResult:
    """One sweep execution: the merged document plus what actually ran."""

    doc: Dict[str, Any]
    executed: List[str] = field(default_factory=list)  # cell ids recomputed
    cached: List[str] = field(default_factory=list)  # cell ids from cache
    quarantined: List[str] = field(default_factory=list)  # cell ids lost
    manifest: List[Dict[str, Any]] = field(default_factory=list)


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    cache: Optional[SweepCache] = None,
    supervise: Optional[SupervisePolicy] = None,
) -> SweepRunResult:
    """Run every cell of ``spec`` (cache-aware) and merge the results.

    Without ``supervise`` a failing cell raises (strict mode, the
    historical behaviour).  With a policy, dirty cells run under full
    supervision — crash/hang detection, deadlines, deterministic
    retry — and persistently failing cells are quarantined into the
    document's ``failures`` manifest while every surviving cell merges
    exactly as it would have in an unfailed run.
    """
    code = code_version()
    scale = current_scale()
    digests = [
        cell_digest(cell.experiment, cell.resolved, code=code, scale=scale)
        for cell in spec.cells
    ]
    rows_by_digest: Dict[str, List[Dict[str, Any]]] = {}
    dirty = []
    cached_ids = []
    for cell, digest in zip(spec.cells, digests):
        if digest in rows_by_digest:
            # two spec cells resolving to the same computation share rows
            cached_ids.append(cell.id)
            continue
        rows = cache.get(digest) if cache is not None else None
        if rows is not None:
            rows_by_digest[digest] = rows
            cached_ids.append(cell.id)
        else:
            dirty.append((cell, digest))
    manifest: List[Dict[str, Any]] = []
    quarantined: List[str] = []
    executed: List[str] = []
    if dirty:
        items = [
            (cell.experiment, canonical_json(cell.resolved), False) for cell, _ in dirty
        ]
        ids = [cell.id for cell, _ in dirty]
        if supervise is None:
            outputs = pool_map(run_cell, items, jobs, task_ids=ids)
        else:
            outcome = supervised_map(
                run_cell,
                items,
                jobs=max(1, jobs),
                policy=supervise,
                task_ids=ids,
            )
            outputs = outcome.results
            manifest = [
                {"cell": rec["task"], "outcome": rec["outcome"],
                 "attempts": rec["attempts"]}
                for rec in outcome.manifest
            ]
            quarantined = list(outcome.quarantined)
        for (cell, digest), output in zip(dirty, outputs):
            if output is None and cell.id in quarantined:
                continue  # salvage: quarantined cells just don't merge
            rows, _runs = output
            rows_by_digest[digest] = rows
            executed.append(cell.id)
            if cache is not None:
                cache.put(digest, cell, rows)
    # only *quarantined* records go into the document: a recovered cell
    # holds exactly the data an unfailed run produces, and the document
    # must stay a pure function of its data (the determinism gates cmp
    # documents, and a transient crash-then-recover must not flake them)
    lost = [rec for rec in manifest if rec["outcome"] == "quarantined"]
    doc = merge_cells(
        spec, rows_by_digest, code=code, scale=scale, failures=lost or None
    )
    return SweepRunResult(
        doc=doc,
        executed=executed,
        cached=cached_ids,
        quarantined=quarantined,
        manifest=manifest,
    )


def merge_cells(
    spec: SweepSpec,
    rows_by_digest: Dict[str, List[Dict[str, Any]]],
    code: Optional[str] = None,
    scale: Optional[str] = None,
    failures: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Pure deterministic merge: cells in spec order, whatever the
    iteration/completion order of ``rows_by_digest`` was.

    With ``failures`` (a supervision manifest), cells whose digest is
    absent from ``rows_by_digest`` are treated as quarantined and
    skipped — partial-result salvage — and the manifest is embedded
    under ``failures``.  Without it, a missing digest is a programming
    error and raises, exactly as before.
    """
    code = code if code is not None else code_version()
    scale = scale if scale is not None else current_scale()
    cells = []
    for cell in spec.cells:
        digest = cell_digest(cell.experiment, cell.resolved, code=code, scale=scale)
        if failures is not None and digest not in rows_by_digest:
            continue  # quarantined: recorded in the manifest instead
        cells.append(
            {
                "id": cell.id,
                "experiment": cell.experiment,
                "params": cell.resolved,
                "digest": digest,
                "rows": rows_by_digest[digest],
            }
        )
    doc: Dict[str, Any] = {
        "schema": RESULT_SCHEMA,
        "name": spec.name,
        "code_version": code,
        "scale": scale,
        "cells": cells,
    }
    if failures:
        # only present when something actually failed, so an unfailed
        # supervised run's document stays byte-identical to a plain one
        doc["failures"] = failures
    return doc


def dumps_result(doc: Dict[str, Any]) -> str:
    """The byte-stable serialisation every determinism gate compares."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
