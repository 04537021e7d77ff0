"""The simulator's datagram.

A :class:`Packet` stands for one IP datagram on the wire.  Its ``payload``
is the transport protocol's PDU object (a TCP segment or an SCTP packet of
chunks); ``wire_size`` is the number of bytes the datagram would occupy on
the link including all headers, which is what links/queues/loss act on.
Actual user bytes are never stored in packets — transports use a ledger
scheme (see ``repro.transport``) so data is only *readable* once the
protocol has legitimately delivered it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

_packet_ids = itertools.count(1)
_next_packet_id = _packet_ids.__next__  # bound method: no lambda per packet

IP_HEADER = 20


@dataclass(slots=True)
class Packet:
    """One simulated IP datagram (slotted: one per wire transmission).

    Each transmission builds a fresh packet, which Python frees when the
    last reference to it goes, so a tap may keep the packets it observes.
    """

    src: str
    dst: str
    proto: str  # "tcp" | "sctp" (plus anything tests register)
    payload: Any
    wire_size: int  # total on-wire bytes including IP + transport headers
    pkt_id: int = field(default_factory=_next_packet_id)
    # set by the Corrupt impairment (repro.faults): the datagram still
    # occupies the wire, but the receiving transport's integrity check
    # (SCTP CRC32c, TCP checksum) must reject it on arrival
    corrupted: bool = False

    def __post_init__(self) -> None:
        if self.wire_size <= 0:
            raise ValueError(f"packet must occupy wire bytes, got {self.wire_size}")

    def describe(self) -> str:
        """Short human-readable trace line for logging/tests."""
        flag = " CORRUPT" if self.corrupted else ""
        return (
            f"#{self.pkt_id} {self.proto} {self.src}->{self.dst} "
            f"{self.wire_size}B{flag} {self.payload!r}"
        )
