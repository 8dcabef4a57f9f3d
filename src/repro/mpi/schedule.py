"""Event-free evaluation of deterministic SPMD rank programs.

The Figure 6 application models (HPL's 1D model, PEPC, GROMACS, HYDRO,
SPECFEM3D) post no wildcard receives, no timeouts and no faults, and
every ``(src, dst, tag)`` channel carries same-size messages, so each
channel is FIFO and the k-th receive on it matches the k-th send.  The
discrete-event run then reduces to a max-plus recurrence over per-rank
clocks: a compute span is ``now + seconds``, a send occupies its sender
until ``now + occupancy`` and lands at ``now + transfer``, and a receive
resumes at ``max(posted, arrival)``.  :class:`Clocks` holds those clocks
and the per-rank :class:`~repro.mpi.api.RankStats`; the functions below
are the collective shapes the models use, each applied to every rank at
once (every rank runs the same program, so a collective is one phase).

**Bit-identity contract** (enforced against the engine by
``tests/mpi/test_schedule.py`` and
``tests/timing/test_sweep_equivalence.py``): every float is produced by
the same operations, in the same order, on the same operands as
:mod:`repro.mpi.api` and :mod:`repro.mpi.collectives` — times come from
the same ``network.transfer_time_s``/``sender_occupancy_s`` calls, a
receive that ties its arrival resumes at the same float either way (the
mailbox race), and per-rank stats accumulate in program order.  The
makespan is the latest final clock, which is the last event the engine
would have dispatched.
"""

from __future__ import annotations

from typing import Any

from repro.mpi.api import RankStats


class Clocks:
    """Per-rank clocks and accounting for one event-free run.

    :param network: the :class:`~repro.mpi.api.MPIWorld` network model.
    :param gflops: per-rank achieved GFLOPS (what
        :meth:`MPIWorld.rank_gflops` would return).
    """

    def __init__(self, network: Any, gflops: list[float]) -> None:
        self.size = len(gflops)
        self.gflops = gflops
        self.now = [0.0] * self.size
        self.stats = [RankStats() for _ in range(self.size)]
        self.transfer = network.transfer_time_s
        self.occupancy = network.sender_occupancy_s

    @property
    def makespan_s(self) -> float:
        return max(self.now)

    def compute_flops(self, rank: int, flops: float) -> None:
        """``ctx.compute_flops(flops)`` on one rank."""
        d = flops / (self.gflops[rank] * 1e9)
        self.stats[rank].compute_s += d
        self.now[rank] += d

    def compute_flops_all(self, flops: float) -> None:
        """``ctx.compute_flops(flops)`` on every rank."""
        for r in range(self.size):
            self.compute_flops(r, flops)

    def _send(self, src: int, dst: int, nbytes: int) -> tuple[float, float]:
        """Account one ``isend``; returns ``(occupancy, transfer)``."""
        st = self.stats[src]
        st.messages_sent += 1
        st.bytes_sent += nbytes
        return (
            self.occupancy(src, dst, nbytes),
            self.transfer(src, dst, nbytes),
        )

    def _recv(self, rank: int, arrival: float) -> None:
        """A blocking receive, posted now, of a message landing at
        ``arrival``."""
        t0 = self.now[rank]
        resume = arrival if arrival > t0 else t0
        self.stats[rank].comm_wait_s += resume - t0
        self.now[rank] = resume


def bcast(clocks: Clocks, nbytes: int, root: int = 0) -> None:
    """:func:`repro.mpi.collectives.bcast`: binomial tree, walked in
    virtual-rank order so every parent sends before its children
    receive.  Inlined: this is HPL's per-panel hot loop."""
    size, now, stats = clocks.size, clocks.now, clocks.stats
    transfer, occupancy = clocks.transfer, clocks.occupancy
    arrival = [0.0] * size
    for vr in range(size):
        r = (vr + root) % size
        if vr:
            t0 = now[r]
            arr = arrival[r]
            resume = arr if arr > t0 else t0
            stats[r].comm_wait_s += resume - t0
            now[r] = resume
        # A non-root receives in the round of its highest set bit and
        # forwards in every later round.
        mask = 1 << vr.bit_length()
        st = stats[r]
        while vr + mask < size:
            dst = (vr + mask + root) % size
            occ = occupancy(r, dst, nbytes)
            xfer = transfer(r, dst, nbytes)
            st.messages_sent += 1
            st.bytes_sent += nbytes
            arrival[dst] = now[r] + xfer
            now[r] = now[r] + occ
            mask <<= 1


def _links(
    clocks: Clocks, dst: list[int], nbytes: int, count: int = 1
) -> tuple[list[float], list[float]]:
    """Per-rank ``(occupancy, transfer)`` of rank ``r``'s send to
    ``dst[r]``, accounting ``count`` such sends on every rank (a ring
    reuses its links every round; the network times are pure)."""
    occ, xfer = [], []
    for r, d in enumerate(dst):
        st = clocks.stats[r]
        st.messages_sent += count
        st.bytes_sent += count * nbytes
        occ.append(clocks.occupancy(r, d, nbytes))
        xfer.append(clocks.transfer(r, d, nbytes))
    return occ, xfer


def _pairwise_round(
    clocks: Clocks, dst: list[int], occ: list[float], xfer: list[float]
) -> None:
    """One ``isend; recv; wait(send)`` round on ranks ``0..len(dst)-1``
    — a recursive-doubling step or a ring step.  Rank ``r`` sends to
    ``dst[r]`` and receives from whichever rank targets it; only the
    receive counts as waiting."""
    now, stats = clocks.now, clocks.stats
    n = len(dst)
    arrival = [0.0] * n
    for r in range(n):
        arrival[dst[r]] = now[r] + xfer[r]
    for r in range(n):
        t0 = now[r]
        arr = arrival[r]
        resume = arr if arr > t0 else t0
        stats[r].comm_wait_s += resume - t0
        done = t0 + occ[r]
        now[r] = done if done > resume else resume


def allgather(clocks: Clocks, nbytes: int) -> None:
    """:func:`repro.mpi.collectives.allgather`: ``p - 1`` ring rounds.
    ``nbytes`` is the size of one ``(index, payload)`` ring message."""
    size = clocks.size
    if size == 1:
        return
    right = [(r + 1) % size for r in range(size)]
    occ, xfer = _links(clocks, right, nbytes, count=size - 1)
    for _ in range(size - 1):
        _pairwise_round(clocks, right, occ, xfer)


def allreduce(clocks: Clocks, nbytes: int) -> None:
    """:func:`repro.mpi.collectives.allreduce`: recursive doubling over
    the largest power-of-two block, with the surplus ranks folded in
    before and out after."""
    size, now = clocks.size, clocks.now
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    rem = size - pof2
    # Fold-in: each surplus rank sends to its partner (then blocks on
    # the fold-out reply).
    arrival = [0.0] * rem
    for r in range(pof2, size):
        occ, xfer = clocks._send(r, r - pof2, nbytes)
        arrival[r - pof2] = now[r] + xfer
        now[r] = now[r] + occ
    for r in range(rem):
        clocks._recv(r, arrival[r])
    mask = 1
    while mask < pof2:
        partner = [r ^ mask for r in range(pof2)]
        _pairwise_round(clocks, partner, *_links(clocks, partner, nbytes))
        mask <<= 1
    # Fold-out: return the result to the surplus ranks.
    for r in range(rem):
        occ, xfer = clocks._send(r, r + pof2, nbytes)
        arrival[r] = now[r] + xfer
        now[r] = now[r] + occ
    for r in range(pof2, size):
        clocks._recv(r, arrival[r - pof2])


def sendrecv_shift(clocks: Clocks, nbytes: int, offset: int) -> None:
    """``ctx.sendrecv(rank + offset, src=rank - offset)`` on every rank
    (mod p, so an offset that wraps to 0 is a self-send): both posted
    at once, resuming when the send's occupancy ends and the message
    has landed; the whole span counts as waiting."""
    size, now, stats = clocks.size, clocks.now, clocks.stats
    dst = [(r + offset) % size for r in range(size)]
    occ, xfer = _links(clocks, dst, nbytes)
    arrival = [0.0] * size
    for r in range(size):
        arrival[dst[r]] = now[r] + xfer[r]
    for r in range(size):
        t0 = now[r]
        resume = t0 + occ[r]
        if arrival[r] > resume:
            resume = arrival[r]
        stats[r].comm_wait_s += resume - t0
        now[r] = resume


def slab_exchange(clocks: Clocks, nbytes: int) -> None:
    """``ctx.exchange`` of the 1D slab codes on every rank: swap
    ``nbytes`` with both neighbours ``rank + 1`` and ``rank - 1``
    (non-periodic: the end slabs have one, a lone rank skips the call),
    all posted at once, resuming when the last send's occupancy ends or
    the last message lands; the whole span counts as waiting."""
    size, now, stats = clocks.size, clocks.now, clocks.stats
    if size == 1:
        return
    t0 = list(now)
    from_below = [0.0] * size  # arrival at r of r - 1's message
    from_above = [0.0] * size  # arrival at r of r + 1's message
    for r in range(size):
        done = t0[r]
        for dst in (r + 1, r - 1):
            if 0 <= dst < size:
                occ, xfer = clocks._send(r, dst, nbytes)
                (from_below if dst > r else from_above)[dst] = t0[r] + xfer
                end = t0[r] + occ
                if end > done:
                    done = end
        now[r] = done
    for r in range(size):
        resume = now[r]
        if r > 0 and from_below[r] > resume:
            resume = from_below[r]
        if r + 1 < size and from_above[r] > resume:
            resume = from_above[r]
        stats[r].comm_wait_s += resume - t0[r]
        now[r] = resume
