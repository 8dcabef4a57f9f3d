"""Cluster assembly and its MPI-facing network model.

:func:`tibidabo` builds the paper's prototype: up to 192 Tegra 2 nodes
at 1 GHz, one MPI rank per node (each rank using both cores), a
two-level 48-port 1 GbE tree (8 Gb/s bisection, three hops max), and a
choice of TCP/IP or Open-MX messaging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.arch.catalog import get_platform, tegra2
from repro.arch.soc import Platform
from repro.cluster.node import ClusterNode
from repro.mpi.api import MPIWorld
from repro.net.link import GBE, Link
from repro.net.nic import attachment_for
from repro.net.protocol import OPEN_MX, TCP_IP, Protocol, ProtocolStack
from repro.net.topology import TreeTopology
from repro.obs.recorder import current as _obs_current


class ClusterNetwork:
    """Network model handed to :class:`~repro.mpi.api.MPIWorld`.

    Per-message time = protocol-stack time (software + NIC + wire) plus
    switch traversals along the tree path.  An optional contention
    factor models oversubscribed core uplinks under all-to-all pressure.
    """

    def __init__(
        self,
        nodes: list[ClusterNode],
        topology: TreeTopology,
        protocol: Protocol = TCP_IP,
        link: Link = GBE,
        contention_factor: float = 1.0,
    ) -> None:
        if contention_factor < 1.0:
            raise ValueError("contention factor is a multiplier >= 1")
        self.nodes = nodes
        self.topology = topology
        self.protocol = protocol
        self.link = link
        self.contention_factor = contention_factor
        # Deduplicate stacks: a homogeneous cluster's nodes all share one
        # (core, frequency, NIC) operating point, so one ProtocolStack —
        # and its per-size latency/occupancy memo tables — serves every
        # node.  The stack model is immutable apart from those memos, so
        # sharing an instance cannot leak state between nodes.
        unique: dict[tuple, tuple[int, ProtocolStack]] = {}
        self._stacks: list[ProtocolStack] = []
        self._stack_id: list[int] = []  # per-node index into the unique set
        for node in nodes:
            key = (node.platform.soc.core.name, node.freq_ghz, node.nic)
            entry = unique.get(key)
            if entry is None:
                entry = unique[key] = (
                    len(unique),
                    ProtocolStack(
                        protocol,
                        node.nic,
                        link=link,
                        core_name=node.platform.soc.core.name,
                        freq_ghz=node.freq_ghz,
                    ),
                )
            self._stacks.append(entry[1])
            self._stack_id.append(entry[0])
        # (stack id, hops, nbytes) -> transfer seconds, untraced path only
        # (tracing must keep bumping the per-message net.* counters).
        self._xfer_memo: dict[tuple[int, int, int], float] = {}
        # Per-node leaf-switch index, so the hot path resolves hop count
        # with two list lookups instead of two method calls.
        ports = topology.leaf.ports
        self._leaf = [n // ports for n in range(len(nodes))]

    def stack_of(self, node: int) -> ProtocolStack:
        return self._stacks[node]

    def _transfer_uncached(self, src: int, dst: int, nbytes: int) -> float:
        t = self._stacks[src].transfer_time_s(nbytes)
        t += self.topology.path_latency_us(src, dst, nbytes) * 1e-6
        if self.topology.crosses_core(src, dst):
            # Oversubscribed uplinks slow the per-byte part only.
            per_byte_s = nbytes * self._stacks[src].ns_per_byte(nbytes) * 1e-9
            t += per_byte_s * (self.contention_factor - 1.0)
        return t

    def transfer_time_s(self, src: int, dst: int, nbytes: int) -> float:
        if src == dst:
            return 1e-7
        if _obs_current() is not None:
            # Recording: every message must bump the wire counters.
            return self._transfer_uncached(src, dst, nbytes)
        # Untraced: the time is a pure function of (stack, hop count,
        # size) — hops determine both the switch latency and whether the
        # path crosses the contended core uplinks.
        leaf = self._leaf
        hops = 1 if leaf[src] == leaf[dst] else 3
        key = (self._stack_id[src], hops, nbytes)
        cached = self._xfer_memo.get(key)
        if cached is None:
            cached = self._xfer_memo[key] = self._transfer_uncached(
                src, dst, nbytes
            )
        return cached

    def sender_occupancy_s(self, src: int, dst: int, nbytes: int) -> float:
        if src == dst:
            return 0.0
        return self._stacks[src].cpu_occupancy_s(nbytes)

    def link_class(self, src: int, dst: int) -> tuple[int, int]:
        """``(sender's stack, hop count)``: untraced
        :meth:`transfer_time_s` and :meth:`sender_occupancy_s` are
        functions of this class and the message size only (hop count 0
        is a self-send)."""
        if src == dst:
            return self._stack_id[src], 0
        leaf = self._leaf
        return self._stack_id[src], 1 if leaf[src] == leaf[dst] else 3


@dataclass
class Cluster:
    """A homogeneous cluster of SoC nodes."""

    name: str
    nodes: list[ClusterNode]
    topology: TreeTopology
    protocol: Protocol = TCP_IP
    link: Link = GBE

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("cluster needs at least one node")
        if self.topology.n_nodes < len(self.nodes):
            raise ValueError("topology smaller than node count")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def network(self, contention_factor: float = 1.0) -> ClusterNetwork:
        return ClusterNetwork(
            self.nodes,
            self.topology,
            protocol=self.protocol,
            link=self.link,
            contention_factor=contention_factor,
        )

    def peak_gflops(self) -> float:
        """Aggregate peak FP64 of all nodes."""
        return sum(node.peak_gflops() for node in self.nodes)

    def make_world(
        self,
        n_ranks: int | None = None,
        workload: str = "dgemm",
        contention_factor: float = 1.0,
    ) -> MPIWorld:
        """An :class:`MPIWorld` with one rank per node (default)."""
        n = self.n_nodes if n_ranks is None else n_ranks
        if not (1 <= n <= self.n_nodes):
            raise ValueError(
                f"n_ranks must be in [1, {self.n_nodes}]"
            )
        gflops = [node.achieved_gflops(workload) for node in self.nodes]
        return MPIWorld(
            n,
            self.network(contention_factor),
            rank_gflops=lambda r: gflops[r],
        )

    def without_nodes(self, dead: "set[int] | list[int]") -> "Cluster":
        """The cluster rebuilt from the survivors of ``dead`` (by
        node_id) — the shrink-and-rerun path after a mid-job crash,
        mirroring what :func:`degraded_tibidabo` does at boot time.
        Survivors are re-indexed contiguously (MPI ranks are dense)."""
        import dataclasses

        dead_set = set(dead)
        survivors = [n for n in self.nodes if n.node_id not in dead_set]
        if not survivors:
            raise RuntimeError("no node survived")
        renumbered = [
            dataclasses.replace(node, node_id=i)
            for i, node in enumerate(survivors)
        ]
        return Cluster(
            name=f"{self.name}-{len(dead_set)}",
            nodes=renumbered,
            topology=TreeTopology(len(renumbered), self.topology.leaf),
            protocol=self.protocol,
            link=self.link,
        )

    def subcluster(self, n_nodes: int) -> "Cluster":
        """The first ``n_nodes`` nodes (used by the scalability sweeps)."""
        if not (1 <= n_nodes <= self.n_nodes):
            raise ValueError("n_nodes out of range")
        return Cluster(
            name=f"{self.name}[{n_nodes}]",
            nodes=self.nodes[:n_nodes],
            topology=TreeTopology(n_nodes, self.topology.leaf),
            protocol=self.protocol,
            link=self.link,
        )


def build_cluster(
    name: str,
    n_nodes: int,
    platform: Platform | str = "Tegra2",
    freq_ghz: float | None = None,
    protocol: Protocol = TCP_IP,
    link: Link = GBE,
    ranks_per_node: int = 1,
) -> Cluster:
    """Generic homogeneous cluster builder."""
    plat = (
        get_platform(platform) if isinstance(platform, str) else platform
    )
    f = plat.soc.max_freq_ghz if freq_ghz is None else freq_ghz
    nodes = [
        ClusterNode(i, plat, f, ranks_per_node=ranks_per_node)
        for i in range(n_nodes)
    ]
    return Cluster(
        name=name,
        nodes=nodes,
        topology=TreeTopology(n_nodes),
        protocol=protocol,
        link=link,
    )


def tibidabo(
    n_nodes: int = 192,
    protocol: Protocol = TCP_IP,
    open_mx: bool = False,
) -> Cluster:
    """The Tibidabo prototype (Section 4): ``n_nodes`` Tegra 2 / SECO Q7
    nodes at 1 GHz on a 48-port 1 GbE tree."""
    if not (1 <= n_nodes <= 192):
        raise ValueError("Tibidabo had at most 192 nodes")
    return build_cluster(
        name="Tibidabo",
        n_nodes=n_nodes,
        platform=tegra2(),
        freq_ghz=1.0,
        protocol=OPEN_MX if open_mx else protocol,
    )


def degraded_tibidabo(
    n_nodes: int = 96,
    open_mx: bool = True,
    injector=None,
    seed: int = 0,
) -> tuple[Cluster, int]:
    """Tibidabo after a realistic bring-up: nodes whose PCIe failed to
    enumerate at boot (Section 6.1) are dropped, and the cluster is
    rebuilt from the survivors.

    Returns ``(cluster, n_lost)``.  The resilience benchmark runs HPL on
    the degraded machine to quantify what the flaky interface costs.
    """
    from repro.cluster.reliability import PCIeFaultInjector

    from repro.obs.recorder import current as _obs_current

    inj = injector or PCIeFaultInjector(seed=seed)
    healthy = inj.boot_nodes(n_nodes)
    survivors = int(healthy.sum())
    if survivors == 0:
        raise RuntimeError("no node survived boot")
    rec = _obs_current()
    if rec is not None:
        for i, ok in enumerate(healthy):
            rec.instant(
                "node.up" if ok else "node.down", "cluster", 0.0, node=i
            )
        rec.bump("cluster.nodes_lost", n_nodes - survivors)
    return tibidabo(survivors, open_mx=open_mx), n_nodes - survivors
