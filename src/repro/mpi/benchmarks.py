"""Intel MPI Benchmarks-style ping-pong (Section 4.1 / Figure 7).

"The ping-pong test measures the time and bandwidth to exchange one
message between two MPI processes."  What is measured is the full
simulated message path (sender occupancy, stack latency, per-byte cost,
rendezvous) — the same path application messages take.  The ping-pong
runs event-free on :class:`~repro.mpi.schedule.Clocks`, with the same
floats as the discrete-event MPI, which still runs it under a live
recorder or ``REPRO_SCALAR_SWEEP=1`` (the oracle).  The other IMB
benchmarks below always run on the discrete-event MPI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mpi.api import (
    MPIWorld,
    RankContext,
    SyntheticPayload,
    UniformNetwork,
)
from repro.mpi.schedule import Clocks, engine_forced
from repro.net.protocol import ProtocolStack

#: Message sizes of the latency panel of Figure 7 (bytes).
LATENCY_SIZES = (0, 1, 2, 4, 8, 16, 32, 64)

#: Message sizes of the bandwidth panel (2^0 .. 2^24 bytes).
BANDWIDTH_SIZES = tuple(1 << i for i in range(0, 25, 2))


@dataclass(frozen=True)
class PingPongResult:
    """One (message size, repetitions) ping-pong measurement."""

    nbytes: int
    repetitions: int
    half_round_trip_us: float

    @property
    def latency_us(self) -> float:
        return self.half_round_trip_us

    @property
    def bandwidth_mbs(self) -> float:
        """Payload bandwidth, MB/s (bytes per µs)."""
        if self.nbytes == 0:
            return 0.0
        return self.nbytes / self.half_round_trip_us


def _pingpong_rank(ctx: RankContext, reps: int, payload: SyntheticPayload):
    peer = 1 - ctx.rank
    for _ in range(reps):
        if ctx.rank == 0:
            yield from ctx.send(peer, payload)
            yield from ctx.recv(peer)
        else:
            yield from ctx.recv(peer)
            yield from ctx.send(peer, payload)
    return ctx.now


def _pingpong_schedule(clocks: Clocks, nbytes: int, reps: int) -> None:
    """Event-free :func:`_pingpong_rank`: each message is one send on
    its sender's clock and one blocking receive on its peer's, with one
    price per link class."""
    now = clocks.now
    classes = clocks.pattern("shift", 1)[1]  # 0 -> 1 and 1 -> 0
    occ, xfer = clocks.prices(nbytes)
    for _ in range(reps):
        for src in (0, 1):
            c = classes[src]
            arrival = now[src] + xfer[c]
            now[src] = now[src] + occ[c]
            clocks._recv(1 - src, arrival)
    for st in clocks.stats:
        st.messages_sent += reps
        st.bytes_sent += reps * nbytes


def ping_pong(
    stack: ProtocolStack, nbytes: int, repetitions: int = 10
) -> PingPongResult:
    """Run a two-rank ping-pong over ``stack`` and report the half
    round-trip time (the IMB latency convention)."""
    if repetitions <= 0:
        raise ValueError("repetitions must be positive")
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    network = UniformNetwork(stack)
    if engine_forced():
        world = MPIWorld(2, network)
        payload = SyntheticPayload(nbytes)
        makespan_s = world.run(_pingpong_rank, repetitions, payload).makespan_s
    else:
        clocks = Clocks(network, [1.0, 1.0])  # no compute: speeds unused
        _pingpong_schedule(clocks, nbytes, repetitions)
        makespan_s = clocks.makespan_s
    total = makespan_s * 1e6  # µs
    return PingPongResult(
        nbytes=nbytes,
        repetitions=repetitions,
        half_round_trip_us=total / (2 * repetitions),
    )


def latency_curve(
    stack: ProtocolStack, sizes: tuple[int, ...] = LATENCY_SIZES
) -> dict[int, float]:
    """Latency (µs) per message size — Figure 7 panels (a)-(c)."""
    return {s: ping_pong(stack, s).latency_us for s in sizes}


def bandwidth_curve(
    stack: ProtocolStack, sizes: tuple[int, ...] = BANDWIDTH_SIZES
) -> dict[int, float]:
    """Effective bandwidth (MB/s) per message size — panels (d)-(f)."""
    return {s: ping_pong(stack, s).bandwidth_mbs for s in sizes if s > 0}


# ---------------------------------------------------------------------------
# Additional IMB-style benchmarks (the suite the paper used contains
# PingPong, SendRecv, Exchange and the collective timings).
# ---------------------------------------------------------------------------

def _sendrecv_rank(ctx: RankContext, nbytes: int, reps: int):
    """IMB SendRecv: a periodic chain; every rank sends right while
    receiving from the left, both posted concurrently."""
    right = (ctx.rank + 1) % ctx.size
    left = (ctx.rank - 1) % ctx.size
    buf = bytes(nbytes)
    for _ in range(reps):
        yield from ctx.exchange([(right, buf, 80)], [(left, 80)])
    return ctx.now


def sendrecv_benchmark(
    stack: ProtocolStack, n_ranks: int, nbytes: int, repetitions: int = 10
) -> float:
    """IMB SendRecv: average time per iteration (µs) over the ring."""
    if n_ranks < 2:
        raise ValueError("SendRecv needs at least two ranks")
    world = MPIWorld(n_ranks, UniformNetwork(stack))
    result = world.run(_sendrecv_rank, nbytes, repetitions)
    return result.makespan_s * 1e6 / repetitions


def _exchange_rank(ctx: RankContext, nbytes: int, reps: int):
    """IMB Exchange: both neighbours, both directions, every iteration."""
    right = (ctx.rank + 1) % ctx.size
    left = (ctx.rank - 1) % ctx.size
    buf = bytes(nbytes)
    for _ in range(reps):
        yield from ctx.exchange(
            [(right, buf, 81), (left, buf, 82)],
            [(left, 81), (right, 82)],
        )
    return ctx.now


def exchange_benchmark(
    stack: ProtocolStack, n_ranks: int, nbytes: int, repetitions: int = 10
) -> float:
    """IMB Exchange: average time per iteration (µs)."""
    if n_ranks < 2:
        raise ValueError("Exchange needs at least two ranks")
    world = MPIWorld(n_ranks, UniformNetwork(stack))
    result = world.run(_exchange_rank, nbytes, repetitions)
    return result.makespan_s * 1e6 / repetitions


def allreduce_benchmark(
    stack: ProtocolStack, n_ranks: int, nbytes: int = 8, repetitions: int = 5
) -> float:
    """IMB Allreduce: average time per operation (µs)."""
    from repro.mpi.collectives import allreduce

    payload = np.zeros(max(1, nbytes // 8))

    def rank_fn(ctx):
        for _ in range(repetitions):
            yield from allreduce(ctx, payload)
        return ctx.now

    world = MPIWorld(n_ranks, UniformNetwork(stack))
    result = world.run(rank_fn)
    return result.makespan_s * 1e6 / repetitions
