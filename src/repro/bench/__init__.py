"""Benchmark harness: the paper's experiments as cell matrices.

``harness.MATRICES`` declares each table/figure as named axes plus free
parameters; ``run_matrix`` runs an experiment's default matrix and
returns structured rows; ``format_table`` renders them next to the
paper's published values so every ``pytest benchmarks/`` run prints a
paper-vs-measured comparison (recorded in EXPERIMENTS.md).
"""

from .harness import (
    ExperimentRow,
    default_cells,
    format_table,
    multihoming_failover,
    resolve_sweep_params,
    run_matrix,
    run_sweep_cell,
    scaled,
    sweep_axis_names,
    sweep_experiments,
    sweep_free_names,
)

__all__ = [
    "ExperimentRow",
    "default_cells",
    "format_table",
    "multihoming_failover",
    "resolve_sweep_params",
    "run_matrix",
    "run_sweep_cell",
    "scaled",
    "sweep_axis_names",
    "sweep_experiments",
    "sweep_free_names",
]
