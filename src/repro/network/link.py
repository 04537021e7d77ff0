"""Unidirectional link: serialisation + propagation + drop-tail FIFO.

A transmitter can only push one packet onto the wire at a time; packets
that arrive while the transmitter is busy wait in a byte-bounded queue and
are dropped (tail drop) when it overflows.  Propagation is a pure delay, so
multiple packets can be in flight simultaneously.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..simkernel import Kernel
from .packet import Packet

Sink = Callable[[Packet], None]

# queue-occupancy buckets in bytes: one MTU up to the default 512 KiB cap
QUEUE_OCCUPANCY_EDGES = (1500, 8 * 1024, 32 * 1024, 128 * 1024, 512 * 1024, 2 * 1024 * 1024)


class Link:
    """One direction of a cable; create two for full duplex."""

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        bandwidth_bps: int,
        prop_delay_ns: int,
        queue_bytes: int = 512 * 1024,
        sink: Optional[Sink] = None,
    ) -> None:
        if prop_delay_ns < 0:
            raise ValueError("propagation delay cannot be negative")
        if bandwidth_bps <= 0:
            raise ValueError(f"non-positive bandwidth: {bandwidth_bps}")
        self.kernel = kernel
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.prop_delay_ns = prop_delay_ns
        self.queue_bytes = queue_bytes
        self.sink = sink
        self._ready_at = 0  # virtual time the transmitter becomes idle
        self._queued_bytes = 0
        # prebound completion callback: one bound-method allocation per
        # link instead of one per transmitted packet
        self._tx_complete_cb = self._tx_complete
        self.up = True  # administrative state (repro.faults link: targets)
        # statistics
        self.tx_packets = 0
        self.tx_bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self.admin_down_drops = 0
        scope = kernel.metrics.scope(f"net.link.{name}")
        scope.probe("tx_packets", lambda: self.tx_packets)
        scope.probe("tx_bytes", lambda: self.tx_bytes)
        scope.probe("dropped_packets", lambda: self.dropped_packets)
        scope.probe("dropped_bytes", lambda: self.dropped_bytes)
        scope.probe("admin_down_drops", lambda: self.admin_down_drops)
        scope.probe("queued_bytes", lambda: self._queued_bytes)
        self._occupancy_hist = (
            scope.histogram("queue_occupancy_bytes", QUEUE_OCCUPANCY_EDGES)
            if kernel.metrics.enabled
            else None
        )

    def connect(self, sink: Sink) -> None:
        """Attach the receiving end (host NIC ingress or switch port)."""
        self.sink = sink

    def set_up(self, up: bool) -> None:
        """Administratively enable/disable the link (cable pull)."""
        self.up = up

    @property
    def queued_bytes(self) -> int:
        """Bytes currently waiting for (or occupying) the transmitter."""
        return self._queued_bytes

    def send(self, packet: Packet) -> bool:
        """Enqueue ``packet``; returns False if tail-dropped."""
        if self.sink is None:
            raise RuntimeError(f"link {self.name} has no sink connected")
        if not self.up:
            self.admin_down_drops += 1
            return False
        size = packet.wire_size
        queued = self._queued_bytes + size
        if queued > self.queue_bytes:
            self.dropped_packets += 1
            self.dropped_bytes += size
            return False
        self._queued_bytes = queued
        if self._occupancy_hist is not None:
            self._occupancy_hist.observe(queued)
        # hot path: serialisation delay inlined (identical arithmetic to
        # simkernel.units.tx_time_ns) and completion scheduled through the
        # fire-and-forget kernel path — a transmission is never cancelled
        kernel = self.kernel
        now = kernel._now
        start = self._ready_at
        if start < now:
            start = now
        bandwidth = self.bandwidth_bps
        tx_ns = (size * 8_000_000_000 + bandwidth - 1) // bandwidth
        done = start + (tx_ns if tx_ns > 0 else 1)
        self._ready_at = done
        self.tx_packets += 1
        self.tx_bytes += size
        kernel.post_at(done, self._tx_complete_cb, packet)
        return True

    def _tx_complete(self, packet: Packet) -> None:
        self._queued_bytes -= packet.wire_size
        if self.prop_delay_ns:
            self.kernel.post_after(self.prop_delay_ns, self.sink, packet)
        else:
            self.sink(packet)
