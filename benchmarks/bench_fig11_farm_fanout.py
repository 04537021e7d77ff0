"""Fig. 11 — Bulk Processor Farm with Fanout=10.

Paper shape: shipping ten tasks per request makes the loss gap worse for
TCP (more back-to-back data behind any lost segment), especially for
long messages; SCTP degrades only mildly versus Fig. 10.
"""

from repro.bench import format_table, run_matrix


def test_fig11_farm_fanout(once):
    rows = once(run_matrix, "fig11")
    print()
    print(format_table("Fig. 11: farm run times, fanout=10", rows))
    for row in rows:
        loss = row.label.split("loss=")[1]
        ratio = row.measured["tcp/sctp"]
        if loss == "0%":
            assert 0.4 < ratio < 2.5, f"{row.label}: no-loss runs comparable"
        else:
            assert ratio > 2.0, f"{row.label}: TCP must lose under loss ({ratio:.2f}x)"
