"""Event-free schedules == the discrete-event engine.

Each :mod:`repro.mpi.schedule` shape, HPL's fused panel schedule and the
Figure 7 ping-pong run against the same program on a real
:class:`~repro.mpi.api.MPIWorld`, on worlds that straddle a leaf switch
(1- and 3-hop paths) with per-rank speeds skewed so ranks reach every
collective at different times.  Makespan and every per-rank
:class:`~repro.mpi.api.RankStats` must match with ``==``.

Two ``hypothesis`` properties extend the fixed grids: the link-class
contract the schedules price by (untraced network times depend only on
``(link_class, nbytes)``), drawn over every stack, link and leaf-switch
boundary, and random sequences of the shapes on random worlds against
the engine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.hpl import HPLConfig, _model_rank, _model_schedule
from repro.arch.catalog import PLATFORMS
from repro.cluster.cluster import ClusterNetwork, tibidabo
from repro.cluster.node import ClusterNode
from repro.core.study import FIG7_CONFIGS
from repro.mpi import schedule
from repro.mpi.api import MPIWorld, SyntheticPayload, UniformNetwork
from repro.mpi.benchmarks import (
    BANDWIDTH_SIZES,
    LATENCY_SIZES,
    _pingpong_rank,
    _pingpong_schedule,
    ping_pong,
)
from repro.mpi.collectives import allgather, allreduce, bcast
from repro.net import (
    FAST_ETHERNET,
    GBE,
    INFINIBAND_40G,
    ONBOARD,
    OPEN_MX,
    PCIE,
    TCP_IP,
    TEN_GBE,
    USB3,
    CPU_PROTOCOL_SPEED,
    ProtocolStack,
    Switch,
    TreeTopology,
)

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


def _tree_bcast(clocks, nbytes, root):
    """A broadcast walked over :class:`schedule.BcastTrees` with one
    price per link class — HPL's per-panel broadcast, without the
    compute fused around it."""
    trees = schedule.BcastTrees(clocks)
    tree = trees.tree(root)
    occ, xfer = clocks.prices(nbytes)
    arrival = [0.0] * clocks.size
    for r, children in tree:
        if r != root:
            clocks._recv(r, arrival[r])
        for dst, c in children:
            st = clocks.stats[r]
            st.messages_sent += 1
            st.bytes_sent += nbytes
            arrival[dst] = clocks.now[r] + xfer[c]
            clocks.now[r] = clocks.now[r] + occ[c]


#: name -> (DES collective(ctx, nbytes), schedule(clocks, nbytes))
SHAPES = {
    "bcast": (
        lambda ctx, nb: bcast(ctx, SyntheticPayload(nb), root=ctx.size // 2),
        lambda clocks, nb: _tree_bcast(clocks, nb, root=clocks.size // 2),
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


#: Straddles the 48-port leaf switch at 47..50.
HPL_SIZES = (1, 2, 3, 5, 8, 13, 47, 48, 49, 50)

#: (n, nb): one panel, a ragged last panel, more panels than ranks.
HPL_CONFIGS = ((128, 128), (300, 64), (1000, 128))


@pytest.mark.parametrize("n,nb", HPL_CONFIGS)
@pytest.mark.parametrize("open_mx", [False, True], ids=["tcp", "omx"])
@pytest.mark.parametrize("size", HPL_SIZES)
def test_hpl_schedule_matches_engine(size, open_mx, n, nb):
    """HPL's fused panel pass == its rank program on the engine."""
    network = tibidabo(max(size, 2), open_mx=open_mx).network()
    gflops = _gflops(size)
    cfg = HPLConfig(n=n, nb=nb)
    world = MPIWorld(size, network, rank_gflops=lambda r: gflops[r])
    want = world.run(_model_rank, cfg)

    clocks = schedule.Clocks(network, gflops)
    _model_schedule(cfg, clocks)

    assert clocks.makespan_s == want.makespan_s
    assert clocks.now == want.results
    assert clocks.stats == want.stats


def test_link_classes_partition_tibidabo_pairs():
    """Two classes across the leaf boundary, plus self-sends, and the
    untraced times are the same on every pair of a class."""
    network = tibidabo(96).network()
    pairs = [(0, 1), (47, 0), (0, 48), (95, 3), (50, 60), (5, 5)]
    by_class: dict = {}
    for src, dst in pairs:
        by_class.setdefault(network.link_class(src, dst), []).append(
            (src, dst)
        )
    assert len(by_class) == 3
    for members in by_class.values():
        prices = {
            (network.transfer_time_s(s, d, 4096),
             network.sender_occupancy_s(s, d, 4096))
            for s, d in members
        }
        assert len(prices) == 1


@pytest.mark.parametrize("repetitions", [1, 3, 10])
@pytest.mark.parametrize("config", [c[0] for c in FIG7_CONFIGS])
def test_ping_pong_matches_engine(config, repetitions, monkeypatch):
    """The event-free ping-pong == the engine (``REPRO_SCALAR_SWEEP=1``)
    at every Figure 7 stack and message size: the reported half round
    trip, and both ranks' final clocks and stats."""
    _, proto, attach, core, freq = next(
        c for c in FIG7_CONFIGS if c[0] == config
    )
    stack = ProtocolStack(proto, attach, core_name=core, freq_ghz=freq)
    for nbytes in sorted(set(LATENCY_SIZES) | set(BANDWIDTH_SIZES)):
        monkeypatch.delenv("REPRO_SCALAR_SWEEP", raising=False)
        fast = ping_pong(stack, nbytes, repetitions)
        monkeypatch.setenv("REPRO_SCALAR_SWEEP", "1")
        oracle = ping_pong(stack, nbytes, repetitions)
        assert fast.half_round_trip_us == oracle.half_round_trip_us, nbytes
        assert fast == oracle

        network = UniformNetwork(stack)
        want = MPIWorld(2, network).run(
            _pingpong_rank, repetitions, SyntheticPayload(nbytes)
        )
        clocks = schedule.Clocks(network, [1.0, 1.0])
        _pingpong_schedule(clocks, nbytes, repetitions)
        assert clocks.now == want.results, nbytes
        assert clocks.stats == want.stats, nbytes


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

LINKS = (FAST_ETHERNET, GBE, TEN_GBE, INFINIBAND_40G)
PROTOCOLS = (TCP_IP, OPEN_MX)

#: Message sizes: tiny, around Open-MX's 32 KiB rendezvous threshold,
#: and anything up to 4 MiB.
_NBYTES = st.one_of(
    st.integers(0, 64),
    st.integers(32 * 1024 - 2, 32 * 1024 + 2),
    st.integers(0, 4 << 20),
)


@st.composite
def _cluster_specs(draw, max_size: int = 200):
    """``(size, build)``: ``build()`` makes a fresh
    :class:`ClusterNetwork` — nodes of one to three platforms at full
    or half clock (so one to six stacks), any protocol and link, leaf
    switches small enough that the ranks span several of them, and a
    contention factor."""
    ports = draw(st.sampled_from((2, 4, 8, 48)))
    size = draw(st.integers(1, min(max_size, 4 * ports)))
    kinds = draw(st.lists(
        st.tuples(st.sampled_from(sorted(PLATFORMS)), st.sampled_from((0.5, 1.0))),
        min_size=1, max_size=3,
    ))
    protocol = draw(st.sampled_from(PROTOCOLS))
    link = draw(st.sampled_from(LINKS))
    switch = Switch(ports=ports, link=draw(st.sampled_from(LINKS)))
    contention = draw(st.floats(1.0, 4.0))
    nodes = []
    for i in range(size):
        name, clock = kinds[i % len(kinds)]
        platform = PLATFORMS[name]
        nodes.append(ClusterNode(i, platform, clock * platform.soc.max_freq_ghz))

    def build() -> ClusterNetwork:
        return ClusterNetwork(
            nodes, TreeTopology(size, switch), protocol=protocol, link=link,
            contention_factor=contention,
        )

    return size, build


def _prices_by_class(networks, pairs, nbytes) -> dict:
    """link class -> the set of untraced ``(transfer, occupancy)`` of
    ``pairs``, each pair priced on a network from ``networks()``."""
    by_class: dict = {}
    for src, dst in pairs:
        net = networks()
        by_class.setdefault(net.link_class(src, dst), set()).add(
            (net.transfer_time_s(src, dst, nbytes),
             net.sender_occupancy_s(src, dst, nbytes))
        )
    return by_class


def _pairs(size: int):
    rank = st.integers(0, size - 1)
    return st.lists(st.tuples(rank, rank), min_size=2, max_size=16)


@settings(max_examples=150, deadline=None)
@given(spec=_cluster_specs(), data=st.data(), nbytes=_NBYTES)
def test_cluster_network_prices_depend_only_on_link_class(spec, data, nbytes):
    """On fresh networks (no memo shared between pairs) and on one
    shared, memoising network alike, every pair of a link class costs
    the same: the contract :meth:`Clocks.prices` relies on."""
    size, build = spec
    pairs = data.draw(_pairs(size))
    fresh = _prices_by_class(build, pairs, nbytes)
    shared_net = build()
    shared = _prices_by_class(lambda: shared_net, pairs, nbytes)
    assert all(len(prices) == 1 for prices in fresh.values())
    assert shared == fresh


@settings(max_examples=100, deadline=None)
@given(
    protocol=st.sampled_from(PROTOCOLS),
    attachment=st.sampled_from((PCIE, USB3, ONBOARD)),
    link=st.sampled_from(LINKS),
    core=st.sampled_from(sorted(CPU_PROTOCOL_SPEED)),
    freq=st.floats(0.2, 3.0),
    hop_us=st.floats(0.0, 20.0),
    pairs=_pairs(6),
    nbytes=_NBYTES,
)
def test_uniform_network_prices_depend_only_on_link_class(
    protocol, attachment, link, core, freq, hop_us, pairs, nbytes
):
    def build() -> UniformNetwork:
        stack = ProtocolStack(protocol, attachment, link, core, freq)
        return UniformNetwork(stack, hop_latency_us=hop_us)

    by_class = _prices_by_class(build, pairs, nbytes)
    assert all(len(prices) == 1 for prices in by_class.values())


@st.composite
def _programs(draw):
    """A random world and a random sequence of schedule shapes.  One
    size per shape kind, so every ``(src, dst, tag)`` channel carries
    same-size messages (the schedules' precondition)."""
    size, build = draw(_cluster_specs(max_size=24))
    gflops = draw(st.lists(st.floats(0.25, 4.0), min_size=size, max_size=size))
    nbytes = {kind: draw(_NBYTES) for kind in ("allgather", "shift", "slab", "bcast")}
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("compute"), st.lists(
                st.floats(0.0, 1e8), min_size=size, max_size=size)),
            st.tuples(st.sampled_from(("allgather", "allreduce", "slab"))),
            st.tuples(st.just("shift"), st.integers(-size - 1, size + 1)),
            st.tuples(st.just("bcast"), st.integers(0, size - 1)),
        ),
        min_size=1, max_size=8,
    ))
    floats = draw(st.integers(1, 4))  # the allreduce payload, in doubles
    return build(), gflops, nbytes, floats, ops


@settings(max_examples=60, deadline=None)
@given(program=_programs())
def test_random_shape_sequences_match_engine(program):
    network, gflops, nbytes, floats, ops = program
    size = len(gflops)

    def rank_program(ctx):
        for op, *args in ops:
            if op == "compute":
                yield ctx.compute_flops(args[0][ctx.rank])
            elif op == "allgather":
                yield from allgather(ctx, SyntheticPayload(nbytes[op]))
            elif op == "allreduce":
                yield from allreduce(ctx, np.ones(floats))
            elif op == "shift":
                yield from _des_shift(ctx, nbytes[op], args[0])
            elif op == "slab":
                yield from _des_slab(ctx, nbytes[op])
            else:
                yield from bcast(ctx, SyntheticPayload(nbytes[op]), root=args[0])
        return ctx.now

    world = MPIWorld(size, network, rank_gflops=lambda r: gflops[r])
    want = world.run(rank_program)

    clocks = schedule.Clocks(network, gflops)
    for op, *args in ops:
        if op == "compute":
            for r in range(size):
                clocks.compute_flops(r, args[0][r])
        elif op == "allgather":
            # The ring message is (index, payload): 8 + nbytes + 8.
            schedule.allgather(clocks, nbytes[op] + 16)
        elif op == "allreduce":
            schedule.allreduce(clocks, 8 * floats)
        elif op == "shift":
            schedule.sendrecv_shift(clocks, nbytes[op], args[0])
        elif op == "slab":
            schedule.slab_exchange(clocks, nbytes[op])
        else:
            _tree_bcast(clocks, nbytes[op], root=args[0])

    assert clocks.makespan_s == want.makespan_s
    assert clocks.now == want.results
    assert clocks.stats == want.stats
