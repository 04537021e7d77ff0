"""Machine-speed calibration interleaved with the measured simulations.

On a shared host the CPU time of the same Python work drifts by 30-50%
over minutes (co-tenant load on caches, memory and clock), so raw host
CPU seconds from two runs minutes apart cannot resolve a 10% change.
The benchmark therefore runs blocks of a fixed slice of simulator-shaped
work before the first measured simulation of a pass and after each one,
and scales each simulation's times by how fast the slices of the two
blocks around it ran:

    calibrated = raw * (slices * SLICE_REFERENCE_S) / slice_time

A slice is a heap-ordered event loop over slotted objects (dict
look-ups, bytes slicing, coroutine resumption) followed by scattered
read-modify-writes over an 8 MiB buffer.  The second half matters: the
simulator's working set is megabytes of objects, and on a loaded host it
slows with cache and memory pressure, which a cache-resident loop alone
under-reports.  The slice is self-contained and never imports the
simulator, so a change to the simulator cannot move it.
``SLICE_REFERENCE_S`` is part of the benchmark's definition: it fixes
the unit ("CPU seconds on a machine that runs one slice in 4 ms") and
must never change.
"""

from __future__ import annotations

import heapq
import time

SLICE_REFERENCE_S = 0.004
SLICE_EVENTS = 1000
SLICE_TOUCHES = 4000
# untracked by the garbage collector, so it adds nothing to the measured
# simulations' collection work; filled so every page is resident
_BUFFER = bytearray(b"\x01") * (8 << 20)
_MASK = len(_BUFFER) - 1


class _Node:
    __slots__ = ("log", "peer", "queue", "task")

    def __init__(self) -> None:
        self.queue: list = []
        self.log: dict = {}
        self.peer = None
        self.task = _consumer(self.log)
        self.task.send(None)

    def recv(self, loop: "_Loop", seq: int, payload: bytes) -> None:
        self.log[seq % 97] = len(payload)
        self.task.send(payload[: seq % 13])
        if seq & 1:
            loop.post(loop.now + 3 + seq % 5, self.peer.recv, seq + 1, payload[1:] + b"x")
        else:
            self.queue.append(payload[: seq % 7 + 1])
            if len(self.queue) > 8:
                del self.queue[:4]
            loop.post(loop.now + 1, self.peer.recv, seq + 1, payload)


def _consumer(log: dict):
    total = 0
    while True:
        piece = yield
        total += len(piece)
        log["total"] = total


class _Loop:
    def __init__(self) -> None:
        self.heap: list = []
        self.now = 0
        self.seq = 0

    def post(self, when: int, fn, *args) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (when, self.seq, fn, args))

    def run(self, n: int) -> None:
        heap = self.heap
        pop = heapq.heappop
        for _ in range(n):
            when, _seq, fn, args = pop(heap)
            self.now = when
            fn(self, *args)


def run_slice() -> int:
    """One fixed unit of calibration work; returns a checksum of it."""
    loop = _Loop()
    nodes = [_Node() for _ in range(8)]
    for i, node in enumerate(nodes):
        node.peer = nodes[(i + 3) % 8]
        loop.post(i, node.recv, i, b"p" * 64)
    loop.run(SLICE_EVENTS)
    buf = _BUFFER
    index = loop.now
    for _ in range(SLICE_TOUCHES):
        index = (index * 1103515245 + 12345) & _MASK
        buf[index] = (buf[index] + 1) & 255
    return index


def time_slices(n: int) -> float:
    """Host CPU seconds taken by ``n`` calibration slices."""
    clock = time.process_time
    t0 = clock()
    for _ in range(n):
        run_slice()
    return clock() - t0
