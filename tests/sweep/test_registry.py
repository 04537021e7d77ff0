"""The harness cell registry: the default enumeration order is frozen,
and ``repro.bench`` and ``repro.sweep`` run the same cells."""

import json

import pytest

from repro.bench import __main__ as bench_main
from repro.bench import harness


def test_default_cell_order_is_frozen():
    """repro.bench merges rows and metrics snapshots in this order, so the
    metrics JSON bytes depend on it."""
    assert harness.default_cells("fig8")[:3] == [{"size": 1}, {"size": 1024}, {"size": 4096}]
    assert harness.default_cells("table1") == [
        {"size": 30720, "loss": 0.01},
        {"size": 30720, "loss": 0.02},
        {"size": 307200, "loss": 0.01},
        {"size": 307200, "loss": 0.02},
    ]
    assert harness.default_cells("fig10") == [
        {"size_label": label, "loss": loss}
        for label in ("short", "long")
        for loss in (0.0, 0.01, 0.02)
    ]
    assert harness.default_cells("fig9") == [{"kernel": k} for k in harness.FIG9_ORDER]
    assert harness.default_cells("failover") == [{"variant": "default"}]
    assert harness.default_cells("chaos") == [{"rpi": "tcp"}, {"rpi": "sctp"}]
    assert harness.default_cells("interleave") == [
        {"protocol": "sctp", "interleaving": flag, "scheduler": sched}
        for flag in ("off", "on")
        for sched in ("fcfs", "rr")
    ]


def test_default_cells_merge_fixed_free_params():
    assert harness.default_cells("fig9", cls="S")[0] == {"kernel": "LU", "cls": "S"}
    with pytest.raises(ValueError, match="enumerates axis size"):
        harness.default_cells("fig8", size=1024)


def test_every_experiment_is_sweep_addressable():
    for name in harness.sweep_experiments():
        axes = harness.sweep_axis_names(name)
        assert axes, name
        assert harness.default_cells(name), name


def test_bench_rows_equal_a_sweep_of_the_default_axes(tmp_path):
    """python -m repro.bench and repro.sweep run the same cells: a spec
    whose matrix is an experiment's default axes reproduces its rows."""
    from repro.sweep import run_sweep, spec_from_dict

    out = tmp_path / "m.json"
    assert bench_main.main(["interleave", "--metrics-json", str(out)]) == 0
    bench_rows = json.loads(out.read_text())["experiments"]["interleave"]["rows"]
    matrix = {
        axis.name: list(axis.values) for axis in harness.MATRICES["interleave"].axes
    }
    spec = spec_from_dict(
        {"name": "interleave", "sweeps": [{"experiment": "interleave", "matrix": matrix}]}
    )
    doc = run_sweep(spec).doc
    assert [row for cell in doc["cells"] for row in cell["rows"]] == bench_rows


def test_resolve_fills_defaults_in_axis_then_free_order():
    resolved = harness.resolve_sweep_params(
        "pingpong", {"loss": "0.01", "protocol": "tcp", "size": "512"}
    )
    assert list(resolved) == [
        "protocol", "size", "loss", "seed", "iterations", "scenario",
        "interleaving", "scheduler",
    ]
    assert resolved["size"] == 512 and resolved["loss"] == 0.01  # coerced
    assert resolved["seed"] == 1


def test_resolve_converts_json_lists_to_tuples():
    resolved = harness.resolve_sweep_params(
        "table1", {"size": 30720, "loss": 0.01, "seeds": [1, 2]}
    )
    assert resolved["seeds"] == (1, 2)


def test_resolve_rejects_unknown_and_illegal():
    with pytest.raises(KeyError):
        harness.resolve_sweep_params("nope", {})
    with pytest.raises(ValueError, match="unknown parameter"):
        harness.resolve_sweep_params("fig8", {"size": 1, "bogus": 2})
    with pytest.raises(ValueError, match="missing axis"):
        harness.resolve_sweep_params("fig8", {})
    with pytest.raises(ValueError, match="illegal value"):
        harness.resolve_sweep_params(
            "farm", {"protocol": "tcp", "size_label": "huge", "loss": 0.0}
        )
    with pytest.raises(ValueError, match="bad value"):
        harness.resolve_sweep_params("fig8", {"size": "not-a-number"})


def test_fault_scenario_axis():
    clean = harness.run_sweep_cell(
        "pingpong", {"protocol": "tcp", "size": 4096, "loss": 0.0, "iterations": 4}
    )
    faulty = harness.run_sweep_cell(
        "pingpong",
        {
            "protocol": "tcp",
            "size": 4096,
            "loss": 0.0,
            "iterations": 4,
            "scenario": "bernoulli2",
        },
    )
    assert faulty[0].measured["MBps"] < clean[0].measured["MBps"]
    assert "bernoulli2" in faulty[0].label
    with pytest.raises(ValueError, match="unknown fault scenario"):
        harness.run_sweep_cell(
            "pingpong",
            {"protocol": "tcp", "size": 4096, "loss": 0.0, "scenario": "gremlins"},
        )
