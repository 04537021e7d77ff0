"""Halo exchange: the ring-shift kernel of stencil codes.

Every rank holds a "domain slab" and each iteration ships its boundary
halo to the next rank on a ring while receiving the previous rank's —
the communication pattern of 1-D domain-decomposed stencil solvers, and
the canonical large-world workload: unlike ping-pong it keeps *every*
host busy, so on a pod cluster it exercises the trunks between pod
switches.
"""

from __future__ import annotations

from ..util.blobs import SyntheticBlob

HALO_TAG = 7


def make_halo(halo_bytes: int, iterations: int, warmup: int = 1):
    """Build the all-ranks ring-shift application coroutine.

    Each iteration: rank r sends its halo to ``(r+1) % size`` and
    receives from ``(r-1) % size`` (isend + recv so neighbouring sends
    overlap instead of serialising round-trips).  Returns the measured
    virtual nanoseconds for the post-warmup iterations.
    """

    async def halo(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        payload = SyntheticBlob(halo_bytes, label="halo")
        start_ns = None
        for i in range(warmup + iterations):
            if i == warmup:
                start_ns = comm.process.kernel.now
            req = comm.isend(payload, dest=right, tag=HALO_TAG)
            await comm.recv(source=left, tag=HALO_TAG)
            await comm.wait(req)
        return comm.process.kernel.now - start_ns

    return halo
