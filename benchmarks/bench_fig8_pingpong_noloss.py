"""Fig. 8 — MPBench ping-pong throughput, no loss, SCTP normalized to TCP.

Paper shape: TCP wins for small messages, SCTP wins for large ones, with
the crossover near 22 KiB.  We assert the two qualitative ends (TCP ahead
at <= 4 KiB, SCTP ahead at >= 96 KiB) and print the whole curve.
"""

from repro.bench import format_table, run_matrix


def test_fig8_pingpong_noloss(once):
    rows = once(run_matrix, "fig8")
    print()
    print(format_table("Fig. 8: ping-pong throughput (no loss)", rows))
    ratios = {int(r.label.split()[1][:-1]): r.measured["sctp/tcp"] for r in rows}
    assert ratios[1] < 1.0, "TCP must win tiny messages"
    assert ratios[4096] < 1.05, "TCP competitive through small sizes"
    assert ratios[98302] > 1.0, "SCTP must win large messages"
    assert ratios[131069] > 1.05, "SCTP clearly ahead at 128K"
