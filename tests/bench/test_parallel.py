"""Cell fan-out: one worker, and serial/parallel parity.

The CI gate diffs full serial vs ``--jobs 4`` metrics documents byte for
byte; these tests cover the same contract at unit scale so a parity
break is caught in seconds, not at the end of a matrix run.
"""

import json

import pytest

from repro.bench import __main__ as bench_main
from repro.bench import harness, multihoming_failover


def test_unknown_experiment_and_cell_raise():
    with pytest.raises(KeyError):
        harness.default_cells("nope")
    with pytest.raises(KeyError):
        harness.run_sweep_cell("nope", {"size": 1})
    with pytest.raises(ValueError):
        harness.run_sweep_cell("fig8", {"size": "no-such-cell"})


def test_cell_union_matches_full_experiment():
    """Running an experiment cell-by-cell reproduces the monolithic run."""
    merged = [row.to_jsonable() for row in harness.run_matrix("failover")]
    direct = [row.to_jsonable() for row in multihoming_failover()]
    assert merged == direct


def test_parallel_matches_serial_including_metrics(tmp_path, capsys):
    """jobs=2 fan-out merges to the exact serial document (cell order,
    rows, and metrics snapshots) and prints the same tables."""
    docs, tables = [], []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.json"
        assert bench_main.main(["fig8", "--jobs", jobs, "--metrics-json", str(out)]) == 0
        docs.append(out.read_bytes())
        tables.append(capsys.readouterr().out.split("  [")[0])
    assert docs[0] == docs[1]
    assert tables[0] == tables[1]
    fig8 = json.loads(docs[0])["experiments"]["fig8"]
    assert len(fig8["rows"]) == len(harness.default_cells("fig8"))  # non-vacuous
    assert fig8["runs"]


def test_worker_exception_names_the_failing_cell():
    """A failing cell's identity and the original exception survive into
    the parent-side error instead of a bare multiprocessing traceback."""
    from repro.bench.parallel import CellError, run_cell

    with pytest.raises(CellError, match=r"fig8\[size=no-such-cell\]"):
        run_cell(("fig8", json.dumps({"size": "no-such-cell"}), False))


def test_parallel_worker_crash_is_attributed():
    """Strict pool_map raises naming the failed task, not a hung join."""
    from repro.bench.parallel import pool_map
    from repro.supervise.executor import SuperviseError

    with pytest.raises(SuperviseError, match="cell-b"):
        pool_map(_crash_item, [1, 2], jobs=2, task_ids=["cell-a", "cell-b"])


def _crash_item(x):
    if x == 2:
        import os

        os._exit(3)  # simulate a segfault/OOM-killed worker
    return x
