"""Fig. 12 — head-of-line blocking: 10-stream vs 1-stream SCTP module.

The paper's ablation: identical SCTP module except every TRC maps to
stream 0.  Under loss the single-stream variant re-introduces HOL
blocking (~25% slower for long messages, ~35% at 2% loss for short);
with no loss the two are equivalent.
"""

from repro.bench import format_table, run_matrix


def test_fig12_hol_blocking(once):
    rows = once(run_matrix, "fig12")
    print()
    print(format_table("Fig. 12: 10 streams vs 1 stream (SCTP)", rows))
    for row in rows:
        loss = row.label.split("loss=")[1]
        ratio = row.measured["1s/10s"]
        if loss == "0%":
            assert 0.85 < ratio < 1.2, f"{row.label}: equal without loss ({ratio:.2f})"
    # under loss the single-stream penalty must show up somewhere material
    lossy = [r.measured["1s/10s"] for r in rows if "0%" not in r.label.split("loss=")[1]]
    assert max(lossy) > 1.10, f"multistreaming must help under loss: {lossy}"
