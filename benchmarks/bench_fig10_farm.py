"""Fig. 10 — Bulk Processor Farm, Fanout=1, short (30K) and long (300K).

Paper shape: comparable at no loss; under 1-2% loss TCP's run time blows
up by ~10x (short) and ~2.6x (long) relative to SCTP.
"""

from repro.bench import format_table, run_matrix


def test_fig10_farm(once):
    rows = once(run_matrix, "fig10")
    print()
    print(format_table("Fig. 10: farm run times, fanout=1", rows))
    for row in rows:
        loss = row.label.split("loss=")[1]
        ratio = row.measured["tcp/sctp"]
        if loss == "0%":
            assert 0.4 < ratio < 2.5, f"{row.label}: no-loss runs comparable"
        elif "short" in row.label:
            assert ratio > 2.0, (
                f"{row.label}: TCP must degrade sharply under loss, got {ratio:.2f}x"
            )
        else:
            # paper: ~2.6x for long messages; our per-seed spread at demo
            # scale is wide, so guard the direction with margin
            assert ratio > 1.3, (
                f"{row.label}: TCP must degrade under loss, got {ratio:.2f}x"
            )
