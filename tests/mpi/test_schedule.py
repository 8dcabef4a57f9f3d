"""Event-free collective schedules == the discrete-event engine.

Each :mod:`repro.mpi.schedule` shape runs against the same program on a
real :class:`~repro.mpi.api.MPIWorld`, on worlds that straddle a leaf
switch (1- and 3-hop paths) with per-rank speeds skewed so ranks reach
every collective at different times.  Makespan and every per-rank
:class:`~repro.mpi.api.RankStats` must match with ``==``.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import tibidabo
from repro.mpi import schedule
from repro.mpi.api import MPIWorld, SyntheticPayload
from repro.mpi.collectives import allgather, allreduce, bcast

SIZES = (1, 2, 3, 4, 5, 7, 8, 13, 50)


def _gflops(size: int) -> list[float]:
    return [1.0 + 0.37 * ((7 * r) % 5) for r in range(size)]


def _flops(rank: int) -> float:
    return 1e6 * (1 + (rank * 3) % 4)


def _des_shift(ctx, nbytes, offset):
    p = ctx.size
    yield from ctx.sendrecv(
        (ctx.rank + offset) % p, SyntheticPayload(nbytes),
        src=(ctx.rank - offset) % p, send_tag=5, recv_tag=5,
    )


def _des_slab(ctx, nbytes):
    sends, recvs = [], []
    if ctx.rank + 1 < ctx.size:
        sends.append((ctx.rank + 1, SyntheticPayload(nbytes), 10))
        recvs.append((ctx.rank + 1, 11))
    if ctx.rank - 1 >= 0:
        sends.append((ctx.rank - 1, SyntheticPayload(nbytes), 11))
        recvs.append((ctx.rank - 1, 10))
    if sends:
        yield from ctx.exchange(sends, recvs)


#: name -> (DES collective(ctx, nbytes), schedule(clocks, nbytes))
SHAPES = {
    "bcast": (
        lambda ctx, nb: bcast(ctx, SyntheticPayload(nb), root=ctx.size // 2),
        lambda clocks, nb: schedule.bcast(clocks, nb, root=clocks.size // 2),
    ),
    "allgather": (
        lambda ctx, nb: allgather(ctx, SyntheticPayload(nb)),
        # The ring message is (index, payload): 8 + nbytes + 8.
        lambda clocks, nb: schedule.allgather(clocks, nb + 16),
    ),
    "allreduce": (
        lambda ctx, nb: allreduce(ctx, 1.0),
        lambda clocks, nb: schedule.allreduce(clocks, 8),
    ),
    "shift+1": (
        lambda ctx, nb: _des_shift(ctx, nb, 1),
        lambda clocks, nb: schedule.sendrecv_shift(clocks, nb, 1),
    ),
    "shift-2": (
        lambda ctx, nb: _des_shift(ctx, nb, -2),
        lambda clocks, nb: schedule.sendrecv_shift(clocks, nb, -2),
    ),
    "slab": (_des_slab, schedule.slab_exchange),
}


@pytest.mark.parametrize("nbytes", [64, 200_000])
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_shape_matches_engine(shape, size, nbytes):
    des, fast = SHAPES[shape]
    network = tibidabo(max(size, 2)).network()
    gflops = _gflops(size)

    def program(ctx):
        # Skewed compute before and after, and the collective twice,
        # so the second call sees the first one's stragglers.
        yield ctx.compute_flops(_flops(ctx.rank))
        yield from des(ctx, nbytes)
        yield ctx.compute_flops(_flops(ctx.rank + 1))
        yield from des(ctx, nbytes)
        return ctx.now

    world = MPIWorld(size, network, rank_gflops=lambda r: gflops[r])
    want = world.run(program)

    clocks = schedule.Clocks(network, gflops)
    for r in range(size):
        clocks.compute_flops(r, _flops(r))
    fast(clocks, nbytes)
    for r in range(size):
        clocks.compute_flops(r, _flops(r + 1))
    fast(clocks, nbytes)

    assert clocks.makespan_s == want.makespan_s
    assert clocks.now == want.results
    assert clocks.stats == want.stats


def test_compute_flops_all_matches_per_rank():
    network = tibidabo(4).network()
    a = schedule.Clocks(network, _gflops(4))
    b = schedule.Clocks(network, _gflops(4))
    a.compute_flops_all(3e6)
    for r in range(4):
        b.compute_flops(r, 3e6)
    assert a.now == b.now and a.stats == b.stats
