"""PEPC — a parallel tree code for the N-body problem (DEISA suite).

The Pretty Efficient Parallel Coulomb solver computes long-range forces
with a Barnes-Hut-style hashed oct-tree.  Its strong-scaling weakness at
small inputs (Section 4: "PEPC also shows relatively poor strong
scalability partly because the input set that we can fit on our cluster
is too small") comes from the global branch-node exchange: every rank
allgathers its tree branches each step, a cost that *grows* with rank
count while the per-rank force work shrinks.

The reference input needs at least 24 Tibidabo nodes (the paper plots
PEPC assuming linear scaling at 24).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Generator

from repro.apps.base import Application, AppRunResult
from repro.cluster.cluster import Cluster
from repro.mpi import schedule
from repro.mpi.api import RankContext, SyntheticPayload, payload_nbytes
from repro.mpi.collectives import allgather, allreduce


@dataclass(frozen=True)
class PEPCConfig:
    """Reference problem: 90M charged particles.

    :param n_particles: particle count.
    :param bytes_per_particle: state + tree overhead per particle.
    :param flops_per_particle: force-evaluation work per particle per
        step (the tree walk visits O(log n) multipoles, each a multipole
        expansion evaluation).
    :param branch_bytes: per-rank branch-node payload of the global
        tree exchange.
    :param steps: simulated timesteps.
    """

    n_particles: float = 9.0e7
    bytes_per_particle: float = 211.0
    flops_per_particle: float = 6500.0
    branch_bytes: int = 3_000_000
    steps: int = 3

    def __post_init__(self) -> None:
        if self.n_particles <= 0 or self.steps <= 0:
            raise ValueError("particles and steps must be positive")

    @property
    def memory_bytes(self) -> float:
        return self.n_particles * self.bytes_per_particle

    @property
    def flops_per_step(self) -> float:
        return self.n_particles * self.flops_per_particle


def _pepc_rank(ctx: RankContext, cfg: PEPCConfig) -> Generator:
    p = ctx.size
    for _ in range(cfg.steps):
        # Local tree construction (~6% of the force work).
        yield ctx.compute_flops(0.06 * cfg.flops_per_step / p)
        # Global branch exchange: every rank learns every other domain's
        # top-level tree — the scaling bottleneck.
        yield from allgather(ctx, SyntheticPayload(cfg.branch_bytes))
        # Tree walk + force evaluation.
        yield ctx.compute_flops(cfg.flops_per_step / p)
        # Energy / load-balance diagnostics.
        yield from allreduce(ctx, 1.0)
    return ctx.now


def _pepc_schedule(cfg: PEPCConfig, clocks: schedule.Clocks) -> None:
    """Event-free mirror of :func:`_pepc_rank`."""
    p = clocks.size
    ring_bytes = payload_nbytes((0, SyntheticPayload(cfg.branch_bytes)))
    for _ in range(cfg.steps):
        clocks.compute_flops_all(0.06 * cfg.flops_per_step / p)
        schedule.allgather(clocks, ring_bytes)
        clocks.compute_flops_all(cfg.flops_per_step / p)
        schedule.allreduce(clocks, payload_nbytes(1.0))


class PEPC(Application):
    name = "PEPC"
    description = "Tree code for N-body problem"
    scaling = "strong"

    def __init__(self, config: PEPCConfig | None = None) -> None:
        self.config = config or PEPCConfig()

    def simulate(
        self, cluster: Cluster, n_nodes: int, **overrides: Any
    ) -> AppRunResult:
        cfg = replace(self.config, **overrides)
        return self.run_model(
            cluster, n_nodes, "particle", _pepc_rank, (cfg,), _pepc_schedule,
            flops=cfg.flops_per_step * cfg.steps * 1.06, steps=cfg.steps,
        )
