"""GROMACS — molecular dynamics (Berendsen et al.).

Short-range MD with domain decomposition: each step exchanges boundary
atoms with spatial neighbours twice (positions out, forces back) and
performs two small global reductions (energies, virial).  The halo is a
*surface* term, ``(atoms/rank)^(2/3)``, so the communication fraction
grows as ranks shrink the domains — which is why the paper ran it on an
input "that fits in the memory of two nodes" and notes "its scalability
improves as the input size is increased".

A functional Lennard-Jones kernel (:func:`lennard_jones`) backs the
correctness tests (symmetry, force antisymmetry, energy conservation
over a velocity-Verlet step).
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
class GromacsConfig:
    """Reference problem: a 1M-atom solvated system.

    :param n_atoms: atoms.
    :param bytes_per_atom: coordinates, velocities, neighbour lists.
    :param neighbors_per_atom: pair interactions within cutoff.
    :param flops_per_pair: LJ + Coulomb work per pair per step.
    :param halo_bytes_per_surface_atom: payload per exchanged atom.
    :param steps: simulated timesteps.
    """

    n_atoms: float = 1.0e6
    bytes_per_atom: float = 900.0
    neighbors_per_atom: float = 60.0
    flops_per_pair: float = 30.0
    halo_bytes_per_surface_atom: float = 100.0
    steps: int = 4

    def __post_init__(self) -> None:
        if self.n_atoms <= 0 or self.steps <= 0:
            raise ValueError("atoms and steps must be positive")

    @property
    def memory_bytes(self) -> float:
        return self.n_atoms * self.bytes_per_atom

    @property
    def flops_per_step(self) -> float:
        return self.n_atoms * self.neighbors_per_atom * self.flops_per_pair

    def halo_bytes(self, n_ranks: int) -> int:
        """Surface atoms of one domain times payload per atom."""
        local = self.n_atoms / n_ranks
        return int(local ** (2.0 / 3.0) * self.halo_bytes_per_surface_atom)


_NEIGHBOR_OFFSETS = (1, -1, 2, -2, 3, -3)  # 6 spatial neighbours


def _gromacs_rank(ctx: RankContext, cfg: GromacsConfig) -> Generator:
    p = ctx.size
    halo = SyntheticPayload(cfg.halo_bytes(p))
    for _ in range(cfg.steps):
        # Two exchange phases: positions out, forces back.
        for phase, tag in (("positions", 20), ("forces", 30)):
            for i, d in enumerate(_NEIGHBOR_OFFSETS):
                if p == 1:
                    break
                dst = (ctx.rank + d) % p
                src = (ctx.rank - d) % p
                yield from ctx.sendrecv(
                    dst, halo, src=src, send_tag=tag + i, recv_tag=tag + i
                )
        # Non-bonded force evaluation + integration.
        yield ctx.compute_flops(cfg.flops_per_step / p)
        # Global energy and virial reductions.
        yield from allreduce(ctx, 1.0)
        yield from allreduce(ctx, 1.0, tag=7)
    return ctx.now


def _gromacs_schedule(cfg: GromacsConfig, clocks: schedule.Clocks) -> None:
    """Event-free mirror of :func:`_gromacs_rank`."""
    p = clocks.size
    halo = SyntheticPayload(cfg.halo_bytes(p)).nbytes
    for _ in range(cfg.steps):
        for _phase in ("positions", "forces"):
            for d in _NEIGHBOR_OFFSETS:
                if p == 1:
                    break
                schedule.sendrecv_shift(clocks, halo, d)
        clocks.compute_flops_all(cfg.flops_per_step / p)
        schedule.allreduce(clocks, payload_nbytes(1.0))
        schedule.allreduce(clocks, payload_nbytes(1.0))


def lennard_jones(
    pos: np.ndarray, epsilon: float = 1.0, sigma: float = 1.0
) -> tuple[float, np.ndarray]:
    """Total LJ energy and per-atom forces (functional test kernel)."""
    n = pos.shape[0]
    d = pos[None, :, :] - pos[:, None, :]
    r2 = np.einsum("ijk,ijk->ij", d, d)
    np.fill_diagonal(r2, np.inf)
    inv6 = (sigma**2 / r2) ** 3
    energy = 2.0 * epsilon * float(np.sum(inv6 * inv6 - inv6))
    # F_i = -grad_i U = sum_j 24 eps (2 (s/r)^12 - (s/r)^6) (r_i - r_j)/r^2;
    # with d = r_j - r_i the sign flips.
    coef = 24.0 * epsilon * (2.0 * inv6 * inv6 - inv6) / r2
    forces = -np.einsum("ij,ijk->ik", coef, d)
    return energy, forces


def velocity_verlet(
    pos: np.ndarray,
    vel: np.ndarray,
    dt: float,
    mass: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, float]:
    """One velocity-Verlet MD step with LJ forces; returns new positions,
    velocities, and total energy (kinetic + potential)."""
    if dt <= 0 or mass <= 0:
        raise ValueError("dt and mass must be positive")
    _, f0 = lennard_jones(pos)
    new_pos = pos + vel * dt + 0.5 * f0 / mass * dt * dt
    e_pot, f1 = lennard_jones(new_pos)
    new_vel = vel + 0.5 * (f0 + f1) / mass * dt
    e_kin = 0.5 * mass * float(np.sum(new_vel * new_vel))
    return new_pos, new_vel, e_kin + e_pot


class Gromacs(Application):
    name = "GROMACS"
    description = "Molecular dynamics"
    scaling = "strong"

    def __init__(self, config: GromacsConfig | None = None) -> None:
        self.config = config or GromacsConfig()

    def simulate(
        self, cluster: Cluster, n_nodes: int, **overrides: Any
    ) -> AppRunResult:
        cfg = replace(self.config, **overrides)
        return self.run_model(
            cluster, n_nodes, "particle", _gromacs_rank, (cfg,),
            _gromacs_schedule, flops=cfg.flops_per_step * cfg.steps,
            steps=cfg.steps,
        )
