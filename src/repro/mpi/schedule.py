"""Event-free evaluation of deterministic SPMD rank programs.

The Figure 6 application models (HPL's 1D model, PEPC, GROMACS, HYDRO,
SPECFEM3D) and the Figure 7 ping-pong post no wildcard receives, no
timeouts and no faults, and every ``(src, dst, tag)`` channel carries
same-size messages, so each channel is FIFO and the k-th receive on it
matches the k-th send.  The discrete-event run then reduces to a
max-plus recurrence over per-rank clocks: a compute span is
``now + seconds``, a send occupies its sender until ``now + occupancy``
and lands at ``now + transfer``, and a receive resumes at
``max(posted, arrival)``.  :class:`Clocks` holds those clocks
and the per-rank :class:`~repro.mpi.api.RankStats`; the functions below
are the collective shapes the models use, each applied to every rank at
once (every rank runs the same program, so a collective is one phase).
HPL walks its panel broadcasts itself, over :class:`BcastTrees`, fused
with the compute around them (:func:`repro.apps.hpl._model_schedule`).

**Bit-identity contract** (enforced against the engine by
``tests/mpi/test_schedule.py`` and
``tests/timing/test_sweep_equivalence.py``): every float is produced by
the same operations, in the same order, on the same operands as
:mod:`repro.mpi.api` and :mod:`repro.mpi.collectives` — times come from
the same ``network.transfer_time_s``/``sender_occupancy_s`` functions
(called on the same pair, or on another pair of the same
``network.link_class``), a receive that ties its arrival resumes at the
same float either way (the mailbox race), and per-rank stats accumulate
in program order.  The makespan is the latest final clock, which is the
last event the engine would have dispatched.
"""

from __future__ import annotations

import os
from typing import Any

from repro.mpi.api import RankStats
from repro.obs.recorder import current as _obs_current


def engine_forced() -> bool:
    """Whether a run must go through the discrete-event engine instead
    of its event-free schedule: a live recorder (the engine carries the
    trace instrumentation) or ``REPRO_SCALAR_SWEEP=1`` (the oracle).
    Checked at call time so a test can flip it per case."""
    return _obs_current() is not None or bool(
        os.environ.get("REPRO_SCALAR_SWEEP")
    )


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
        self.network = network
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


class BcastTrees:
    """The binomial trees of :func:`repro.mpi.collectives.bcast` over
    one run's ranks, each edge tagged with its link class.

    In a binomial tree every send goes from a rank ``r`` to
    ``(r + 2**j) % size``, so the edges of all roots' trees are the
    ``size * ceil(log2 size)`` pairs tabulated once here; a root's tree
    picks, for each virtual rank, the run of rounds it forwards in.
    Untraced ``transfer_time_s``/``sender_occupancy_s`` are functions of
    ``(network.link_class(src, dst), nbytes)`` only, so :meth:`prices`
    calls them once per class, on the class's first edge, instead of
    once per message (Tibidabo has two classes: within a leaf switch
    and across the core).
    """

    def __init__(self, clocks: Clocks) -> None:
        self._clocks = clocks
        size = clocks.size
        link_class = clocks.network.link_class
        masks = []
        while (1 << len(masks)) < size:
            masks.append(1 << len(masks))
        index: dict[Any, int] = {}
        self._pairs: list[tuple[int, int]] = []  # one edge per class
        # _edges[r][j]: r's round-j send, (dst, class index).
        self._edges: list[tuple[tuple[int, int], ...]] = []
        for r in range(size):
            row = []
            for mask in masks:
                dst = (r + mask) % size
                cls = link_class(r, dst)
                if cls not in index:
                    index[cls] = len(self._pairs)
                    self._pairs.append((r, dst))
                row.append((dst, index[cls]))
            self._edges.append(tuple(row))
        # A non-root receives in the round of its highest set bit and
        # forwards in every later round that reaches a rank.
        self._rounds: list[tuple[int, int]] = []
        for vr in range(size):
            lo = hi = vr.bit_length()
            while hi < len(masks) and vr + masks[hi] < size:
                hi += 1
            self._rounds.append((lo, hi))
        self._trees: dict[int, list[tuple[int, tuple]]] = {}

    def tree(self, root: int) -> list[tuple[int, tuple]]:
        """``(rank, children)`` in virtual-rank order, so every parent
        comes before its children; ``children`` are ``(dst, class
        index)`` pairs in send order.  Built once per root."""
        tree = self._trees.get(root)
        if tree is None:
            size, edges = self._clocks.size, self._edges
            tree = self._trees[root] = []
            for vr, (lo, hi) in enumerate(self._rounds):
                r = (vr + root) % size
                tree.append((r, edges[r][lo:hi]))
        return tree

    def prices(self, nbytes: int) -> tuple[list[float], list[float]]:
        """``(occupancy, transfer)`` of one ``nbytes`` message, indexed
        by class."""
        occupancy, transfer = self._clocks.occupancy, self._clocks.transfer
        return (
            [occupancy(s, d, nbytes) for s, d in self._pairs],
            [transfer(s, d, nbytes) for s, d in self._pairs],
        )


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
