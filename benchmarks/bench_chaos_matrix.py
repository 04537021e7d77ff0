"""Chaos matrix — every repro.faults scenario against both stacks.

Not a paper figure: the paper induced faults one mechanism at a time
(Dummynet loss for §4, path failure for §3.5.1, adversarial packets for
§3.5.2).  The chaos matrix sweeps the whole scenario library and checks
the qualitative claims hold per mechanism: SCTP rides a primary-path
blackhole out via failover while TCP must sit through RTO backoff, and
corruption is rejected by integrity checks on both stacks.
"""

from repro.bench import format_table, run_matrix


def test_chaos_matrix(once):
    rows = once(run_matrix, "chaos")
    print()
    print(format_table("Chaos matrix: fault scenarios x both stacks", rows))
    by_label = {row.label: row.measured for row in rows}

    # every cell completed inside the virtual-time watchdog
    assert len(rows) == 10

    # blackhole: SCTP's failover beats TCP's RTO backoff on both recovery
    # time (first data after the hole opened) and total run time
    tcp_hole = by_label["tcp blackhole 2s"]
    sctp_hole = by_label["sctp blackhole 2s"]
    assert sctp_hole["failovers"] > 0, "SCTP must migrate to the alternate path"
    assert tcp_hole["rto_events"] > 0, "TCP can only wait out its RTO backoff"
    assert sctp_hole["recovery_s"] < tcp_hole["recovery_s"], (
        "SCTP failover must restore delivery before TCP's backed-off "
        "retransmit gets through the re-opened path"
    )
    assert sctp_hole["elapsed_s"] < tcp_hole["elapsed_s"]

    # corruption: dropped by CRC32c / checksum, never delivered
    assert by_label["sctp corrupt 2%"]["integrity_drops"] > 0
    assert by_label["tcp corrupt 2%"]["integrity_drops"] > 0

    # duplication/reordering is absorbed without a single timeout
    assert by_label["sctp dup+reorder"]["rto_events"] == 0
    assert by_label["tcp dup+reorder"]["rto_events"] == 0
