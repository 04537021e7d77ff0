"""A tap may keep the packets it observes: nothing rewrites them later.

Span recorders and pcap writers are taps that hold on to what they see,
so a datagram must keep its id, source and payload after the simulation
is done with it.
"""

import pytest

from repro.core.world import World, WorldConfig
from repro.metrics.taps import PacketTap
from repro.workloads.mpbench import make_pingpong


class KeepingTap(PacketTap):
    def __init__(self) -> None:
        super().__init__()
        self.kept = []

    def on_packet(self, direction, host, packet) -> None:
        self.kept.append((packet, packet.pkt_id, packet.src, packet.payload))


@pytest.mark.parametrize("rpi", ["tcp", "sctp"])
def test_kept_packets_are_never_rewritten(rpi):
    world = World(WorldConfig(n_procs=2, rpi=rpi, seed=0))
    tap = KeepingTap().attach(world.cluster.hosts)
    world.run(make_pingpong(4096, 4))
    assert len(tap.kept) > 50
    mutated = [
        packet
        for packet, pkt_id, src, payload in tap.kept
        if packet.pkt_id != pkt_id or packet.src != src or packet.payload is not payload
    ]
    assert mutated == []
