"""Golden outputs of a small lossy farm world on every stack.

The progression engine skips work that cannot progress: SCTP sends that
would only return EAGAIN, and ``waitany``/``waitall`` rescans after a
step that completed nothing.  Skipping must change no output, so this
pins the virtual-time result, every transport counter of
``total_stats()`` and every ``RPIStats`` field of one farm world per
stack to literals recorded before the skipping existed.  A change to
these numbers is an output change and needs its own justification.
"""

import pytest

from repro.core.rpi.base import RPI_STAT_FIELDS
from repro.core.world import World, WorldConfig
from repro.transport.sctp.association import ASSOC_STAT_FIELDS
from repro.transport.tcp.connection import CONN_STAT_FIELDS
from repro.workloads.farm import FarmParams, make_farm

GOLDEN = {
    ("tcp", 10): {
        "duration_ns": 348140,
        "total_ns": 3000402284,
        "bytes_sent": 1274414,
        "bytes_received": 1274414,
        "segments_sent": 2093,
        "segments_received": 2036,
        "retransmitted_segments": 29,
        "rto_events": 4,
        "fast_retransmits": 16,
        "dupacks_received": 344,
        "sacked_ranges": 700,
        "persist_probes": 0,
        "rpi.eager_sends": 154,
        "rpi.rendezvous_sends": 0,
        "rpi.ssends": 0,
        "rpi.unexpected_messages": 6,
        "rpi.expected_messages": 148,
        "rpi.units_sent": 160,
        "rpi.units_received": 160,
        "rpi.bytes_sent": 1274414,
        "rpi.bytes_received": 1269934,
        "rpi.advance_calls": 1067,
    },
    ("sctp", 10): {
        "duration_ns": 1113997204,
        "total_ns": 4114411542,
        "data_chunks_sent": 1006,
        "data_chunks_received": 1006,
        "bytes_sent": 1274582,
        "bytes_received": 1274582,
        "retransmitted_chunks": 15,
        "fast_retransmits": 14,
        "rto_events": 1,
        "sacks_sent": 727,
        "sacks_received": 715,
        "duplicate_tsns": 0,
        "packets_sent": 1732,
        "messages_delivered": 166,
        "failovers": 0,
        "gap_blocks_sent": 507,
        "gap_blocks_received": 493,
        "heartbeats_sent": 0,
        "heartbeat_acks_received": 0,
        "path_failures": 0,
        "idata_chunks_sent": 0,
        "idata_chunks_received": 0,
        "scheduler_decisions": 1006,
        "messages_interleaved": 0,
        "rpi.eager_sends": 154,
        "rpi.rendezvous_sends": 0,
        "rpi.ssends": 0,
        "rpi.unexpected_messages": 2,
        "rpi.expected_messages": 152,
        "rpi.units_sent": 166,
        "rpi.units_received": 166,
        "rpi.bytes_sent": 1274582,
        "rpi.bytes_received": 1269934,
        "rpi.advance_calls": 869,
    },
    ("sctp", 1): {
        "duration_ns": 1141331812,
        "total_ns": 4141746150,
        "data_chunks_sent": 1006,
        "data_chunks_received": 1006,
        "bytes_sent": 1274582,
        "bytes_received": 1274582,
        "retransmitted_chunks": 14,
        "fast_retransmits": 13,
        "rto_events": 1,
        "sacks_sent": 666,
        "sacks_received": 653,
        "duplicate_tsns": 0,
        "packets_sent": 1661,
        "messages_delivered": 166,
        "failovers": 0,
        "gap_blocks_sent": 322,
        "gap_blocks_received": 315,
        "heartbeats_sent": 0,
        "heartbeat_acks_received": 0,
        "path_failures": 0,
        "idata_chunks_sent": 0,
        "idata_chunks_received": 0,
        "scheduler_decisions": 1006,
        "messages_interleaved": 0,
        "rpi.eager_sends": 154,
        "rpi.rendezvous_sends": 0,
        "rpi.ssends": 0,
        "rpi.unexpected_messages": 2,
        "rpi.expected_messages": 152,
        "rpi.units_sent": 166,
        "rpi.units_received": 166,
        "rpi.bytes_sent": 1274582,
        "rpi.bytes_received": 1269934,
        "rpi.advance_calls": 795,
    },
}


def _observed(rpi, streams):
    world = World(
        WorldConfig(n_procs=4, rpi=rpi, num_streams=streams, seed=5, loss_rate=0.02)
    )
    result = world.run(
        make_farm(FarmParams(num_tasks=40, task_size=30 * 1024, fanout=10)),
        limit_ns=600_000_000_000,
    )
    assert result.results[0].tasks_done == 40
    out = {"duration_ns": result.duration_ns, "total_ns": result.total_ns}
    if rpi == "tcp":
        endpoints, stat_fields = world.tcp_endpoints, CONN_STAT_FIELDS
    else:
        endpoints, stat_fields = world.sctp_endpoints, ASSOC_STAT_FIELDS
    totals = [ep.total_stats() for ep in endpoints]
    for name in stat_fields:
        out[name] = sum(getattr(t, name) for t in totals)
    stats = [world.rpi_stats(rank) for rank in range(4)]
    for name in RPI_STAT_FIELDS:
        out[f"rpi.{name}"] = sum(getattr(s, name) for s in stats)
    return out


@pytest.mark.parametrize(("rpi", "streams"), list(GOLDEN))
def test_lossy_farm_outputs_match_golden(rpi, streams):
    assert _observed(rpi, streams) == GOLDEN[(rpi, streams)]
