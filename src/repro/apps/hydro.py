"""HYDRO — 2D Eulerian hydrodynamics (RAMSES-derived benchmark).

A Godunov-type finite-volume solver on a regular 2D grid, decomposed in
row slabs: each step exchanges two halo rows with the slab neighbours
and agrees on the global timestep with an allreduce.  The halo payload
is independent of the rank count while the slab work shrinks as 1/p, so
the method "starts losing linear strong scalability after 16 nodes"
(Section 4) as the latency-bound allreduce and halo latency catch up
with the per-rank compute.

A functional single-rank kernel (:func:`hydro_step`) implements a real
first-order Godunov update used by the correctness tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Generator

import numpy as np

from repro.apps.base import Application, AppRunResult
from repro.cluster.cluster import Cluster
from repro.mpi import schedule
from repro.mpi.api import RankContext, SyntheticPayload, payload_nbytes
from repro.mpi.collectives import allreduce


@dataclass(frozen=True)
class HydroConfig:
    """Reference problem: an 800 x 800 Eulerian grid.

    :param grid: grid edge (cells).
    :param flops_per_cell: Godunov flux + update work per cell-step.
    :param steps: simulated timesteps.
    """

    grid: int = 800
    flops_per_cell: float = 150.0
    steps: int = 4

    def __post_init__(self) -> None:
        if self.grid <= 0 or self.steps <= 0:
            raise ValueError("grid and steps must be positive")

    @property
    def cells(self) -> float:
        return float(self.grid) ** 2

    @property
    def memory_bytes(self) -> float:
        return self.cells * 4 * 8  # four conserved variables

    @property
    def flops_per_step(self) -> float:
        return self.cells * self.flops_per_cell


def _hydro_rank(ctx: RankContext, cfg: HydroConfig) -> Generator:
    p = ctx.size
    halo = SyntheticPayload(cfg.grid * 2 * 8)  # two rows of FP64
    for _ in range(cfg.steps):
        # Halo exchange with both slab neighbours, posted concurrently
        # (non-periodic boundaries).
        sends, recvs = [], []
        if ctx.rank + 1 < p:
            sends.append((ctx.rank + 1, halo, 10))
            recvs.append((ctx.rank + 1, 11))
        if ctx.rank - 1 >= 0:
            sends.append((ctx.rank - 1, halo, 11))
            recvs.append((ctx.rank - 1, 10))
        if sends:
            yield from ctx.exchange(sends, recvs)
        # Flux computation + conservative update on the local slab.
        yield ctx.compute_flops(cfg.flops_per_step / p)
        # Global CFL timestep.
        yield from allreduce(ctx, 1e-3, op=min)
    return ctx.now


def _hydro_schedule(cfg: HydroConfig, clocks: schedule.Clocks) -> None:
    """Event-free mirror of :func:`_hydro_rank`."""
    p = clocks.size
    halo = SyntheticPayload(cfg.grid * 2 * 8).nbytes
    for _ in range(cfg.steps):
        schedule.slab_exchange(clocks, halo)
        clocks.compute_flops_all(cfg.flops_per_step / p)
        schedule.allreduce(clocks, payload_nbytes(1e-3))


def hydro_step(
    density: np.ndarray, velocity: np.ndarray, dt: float, dx: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """One real first-order upwind step of the 2D advection form used by
    the functional tests (mass conservation, positivity)."""
    if density.shape != velocity.shape[:2] or velocity.shape[2] != 2:
        raise ValueError("velocity must be (nx, ny, 2)")
    if dt <= 0 or dx <= 0:
        raise ValueError("dt and dx must be positive")
    rho = density
    # Upwind fluxes on both axes, periodic boundaries.
    out = rho.copy()
    for axis in (0, 1):
        v = velocity[..., axis]
        vp = np.maximum(v, 0.0)
        vm = np.minimum(v, 0.0)
        flux = vp * rho + vm * np.roll(rho, -1, axis=axis)
        out = out - dt / dx * (flux - np.roll(flux, 1, axis=axis))
    return out, velocity


class Hydro(Application):
    name = "HYDRO"
    description = "2D Eulerian code for hydrodynamics"
    scaling = "strong"

    def __init__(self, config: HydroConfig | None = None) -> None:
        self.config = config or HydroConfig()

    def simulate(
        self, cluster: Cluster, n_nodes: int, **overrides: Any
    ) -> AppRunResult:
        cfg = replace(self.config, **overrides)
        return self.run_model(
            cluster, n_nodes, "stencil", _hydro_rank, (cfg,), _hydro_schedule,
            flops=cfg.flops_per_step * cfg.steps, steps=cfg.steps,
        )
