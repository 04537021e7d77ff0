"""Fig. 9 — NAS Parallel Benchmarks, class B, 8 processes, Mop/s.

Paper shape: SCTP performance comparable to TCP on the NPB suite at
class B; TCP keeps an edge on the short-message-dominated MG and BT.
All kernels must pass their internal verification on both RPIs.
"""

import os

import pytest

from repro.bench import format_table, run_matrix

CLS = os.environ.get("REPRO_NPB_CLASS", "B")


def test_fig9_nas_classB(once):
    rows = once(run_matrix, "fig9", cls=CLS)
    print()
    print(format_table(f"Fig. 9: NPB class {CLS} Mop/s (8 procs)", rows))
    by_name = {r.label.split()[1].split(".")[0]: r for r in rows}
    for name, row in by_name.items():
        assert row.measured["verified"], f"{name} failed numerical verification"
        ratio = row.measured["sctp/tcp"]
        assert 0.5 < ratio < 2.0, f"{name}: protocols should be comparable, got {ratio:.2f}"
    # the paper's specific observation: TCP ahead on MG and BT
    assert by_name["MG"].measured["sctp/tcp"] < 1.1
    assert by_name["BT"].measured["sctp/tcp"] < 1.1


@pytest.mark.parametrize("cls", ["S", "W"])
def test_nas_class_sweep(once, cls):
    """§4.1.2 text: smaller datasets are short-message dominated and lean
    TCP-wards; verification must hold at every class."""
    rows = once(run_matrix, "fig9", cls=cls)
    print()
    print(format_table(f"NPB class {cls} Mop/s (8 procs)", rows))
    for row in rows:
        assert row.measured["verified"], f"{row.label} failed verification"
