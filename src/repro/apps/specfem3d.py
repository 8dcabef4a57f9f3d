"""SPECFEM3D_GLOBE — spectral-element seismic wave propagation
(Komatitsch & Tromp).

High-order spectral elements make the method compute-dense: thousands of
FLOPs per element per step against a face exchange of only a few
hundred bytes per boundary element.  That volume-to-surface ratio is why
"SPECFEM3D shows good strong scaling, using an input set that fits in
the memory of a single node" (Section 4) — it is the best-scaling code
in Figure 6, and the paper's earlier PDE study [13] found it linear.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Generator

from repro.apps.base import Application, AppRunResult
from repro.cluster.cluster import Cluster
from repro.mpi import schedule
from repro.mpi.api import RankContext, SyntheticPayload


@dataclass(frozen=True)
class SpecfemConfig:
    """Reference problem: a regional-scale spectral-element mesh.

    :param n_elements: spectral elements.
    :param bytes_per_element: GLL-point state per element (5^3 points x
        displacement/velocity/acceleration x FP64, plus mesh arrays).
    :param flops_per_element: stiffness application per element-step.
    :param face_bytes_per_element: boundary payload per surface element.
    :param steps: simulated timesteps.
    """

    n_elements: float = 1.2e5
    bytes_per_element: float = 6000.0
    flops_per_element: float = 20000.0
    face_bytes_per_element: float = 200.0
    steps: int = 4

    def __post_init__(self) -> None:
        if self.n_elements <= 0 or self.steps <= 0:
            raise ValueError("elements and steps must be positive")

    @property
    def memory_bytes(self) -> float:
        return self.n_elements * self.bytes_per_element

    @property
    def flops_per_step(self) -> float:
        return self.n_elements * self.flops_per_element

    def face_bytes(self, n_ranks: int) -> int:
        local = self.n_elements / n_ranks
        return int(local ** (2.0 / 3.0) * self.face_bytes_per_element)


def _specfem_rank(ctx: RankContext, cfg: SpecfemConfig) -> Generator:
    p = ctx.size
    face = SyntheticPayload(cfg.face_bytes(p))
    for _ in range(cfg.steps):
        # Assemble boundary contributions with the two slab neighbours
        # (both directions posted concurrently).
        sends, recvs = [], []
        if ctx.rank + 1 < p:
            sends.append((ctx.rank + 1, face, 40))
            recvs.append((ctx.rank + 1, 41))
        if ctx.rank - 1 >= 0:
            sends.append((ctx.rank - 1, face, 41))
            recvs.append((ctx.rank - 1, 40))
        if sends:
            yield from ctx.exchange(sends, recvs)
        # Stiffness application + Newmark update (the compute bulk).
        yield ctx.compute_flops(cfg.flops_per_step / p)
    return ctx.now


def _specfem_schedule(cfg: SpecfemConfig, clocks: schedule.Clocks) -> None:
    """Event-free mirror of :func:`_specfem_rank`."""
    p = clocks.size
    face = SyntheticPayload(cfg.face_bytes(p)).nbytes
    for _ in range(cfg.steps):
        schedule.slab_exchange(clocks, face)
        clocks.compute_flops_all(cfg.flops_per_step / p)


class Specfem3D(Application):
    name = "SPECFEM3D"
    description = "3D seismic wave propagation (spectral element method)"
    scaling = "strong"

    def __init__(self, config: SpecfemConfig | None = None) -> None:
        self.config = config or SpecfemConfig()

    def simulate(
        self, cluster: Cluster, n_nodes: int, **overrides: Any
    ) -> AppRunResult:
        cfg = replace(self.config, **overrides)
        return self.run_model(
            cluster, n_nodes, "spectral", _specfem_rank, (cfg,),
            _specfem_schedule, flops=cfg.flops_per_step * cfg.steps,
            steps=cfg.steps,
        )
