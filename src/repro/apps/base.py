"""Application abstraction and the scalability-study harness.

The paper's method (Section 4): weak scaling for HPL, strong scaling for
everything else; applications that cannot run below some node count
(memory) have their speed-up plotted "assuming linear scaling on the
smallest number of nodes that could execute the benchmark" — e.g. PEPC
needs 24 nodes, so its 24-node point is *defined* as 24.
:class:`ScalingStudy` implements exactly that convention.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cluster.cluster import Cluster
from repro.mpi.schedule import Clocks, engine_forced


@dataclass(frozen=True)
class AppRunResult:
    """One application execution on ``n_nodes``."""

    app: str
    n_nodes: int
    time_s: float
    flops: float
    steps: int
    comm_fraction: float = 0.0

    @property
    def gflops(self) -> float:
        return self.flops / self.time_s / 1e9 if self.time_s > 0 else 0.0

    @property
    def time_per_step_s(self) -> float:
        return self.time_s / self.steps if self.steps else self.time_s


class Application(abc.ABC):
    """A Table 3 application."""

    #: Name as in Table 3.
    name: str = ""
    #: Description column of Table 3.
    description: str = ""
    #: ``"strong"`` or ``"weak"`` — the scaling mode the paper used.
    scaling: str = "strong"

    def min_nodes(self, cluster: Cluster) -> int:
        """Smallest node count whose aggregate memory fits the reference
        input set (``self.config.memory_bytes``)."""
        per_node = cluster.nodes[0].usable_memory_bytes()
        return max(1, -(-int(self.config.memory_bytes) // per_node))

    @abc.abstractmethod
    def simulate(
        self, cluster: Cluster, n_nodes: int, **overrides: Any
    ) -> AppRunResult:
        """Run the application on the first ``n_nodes`` of ``cluster``."""

    def runnable(self, cluster: Cluster, n_nodes: int) -> bool:
        return n_nodes >= self.min_nodes(cluster)

    def run_model(
        self,
        cluster: Cluster,
        n_nodes: int,
        workload: str,
        rank_program: Callable[..., Any],
        args: tuple,
        schedule: Callable[..., None] | None,
        flops: float,
        steps: int,
    ) -> AppRunResult:
        """Run ``rank_program(ctx, *args)`` on the first ``n_nodes``.

        With a ``schedule`` — the event-free mirror of the rank program,
        called as ``schedule(*args, clocks)`` over
        :class:`~repro.mpi.schedule.Clocks` — the discrete-event engine
        is skipped: same floats, no events.  A live recorder (the engine
        carries the trace instrumentation) or ``REPRO_SCALAR_SWEEP=1``
        (the oracle) forces the engine.  Either way the per-rank stats
        become one :class:`AppRunResult` carrying ``flops`` and ``steps``.
        """
        sub = cluster.subcluster(n_nodes)
        if schedule is not None and not engine_forced():
            clocks = Clocks(
                sub.network(),
                [float(node.achieved_gflops(workload)) for node in sub.nodes],
            )
            schedule(*args, clocks)
            time_s, stats = clocks.makespan_s, clocks.stats
        else:
            run = sub.make_world(workload=workload).run(rank_program, *args)
            time_s, stats = run.makespan_s, run.stats
        wait = sum(s.comm_wait_s for s in stats)
        busy = sum(s.compute_s for s in stats)
        return AppRunResult(
            app=self.name,
            n_nodes=n_nodes,
            time_s=time_s,
            flops=flops,
            steps=steps,
            comm_fraction=wait / (wait + busy) if wait + busy else 0.0,
        )


@dataclass
class ScalingStudy:
    """Speed-up curve builder using the paper's conventions."""

    app: Application
    cluster: Cluster
    node_counts: tuple[int, ...] = (4, 8, 16, 32, 64, 96)
    results: dict[int, AppRunResult] = field(default_factory=dict)

    def run(self, **overrides: Any) -> "ScalingStudy":
        """Simulate every runnable node count."""
        runnable: list[int] = []
        for n in self.node_counts:
            if n > self.cluster.n_nodes:
                raise ValueError(
                    f"{n} nodes requested but cluster has "
                    f"{self.cluster.n_nodes}"
                )
            if self.app.runnable(self.cluster, n):
                runnable.append(n)
        for n in runnable:
            self.results[n] = self.app.simulate(self.cluster, n, **overrides)
        if not self.results:
            raise RuntimeError(
                f"{self.app.name} cannot run at any of {self.node_counts}"
            )
        return self

    @property
    def base_nodes(self) -> int:
        """Smallest node count that ran — the linear-scaling anchor."""
        return min(self.results)

    def speedups(self) -> dict[int, float]:
        """Speed-up per node count; the anchor point is *defined* to be
        its own node count (the paper's assumed-linear convention)."""
        base = self.results[self.base_nodes]
        if self.app.scaling == "weak":
            # Weak scaling: the problem grows with n, so speed-up is the
            # ratio of achieved rates (FLOP/s), anchored at base_nodes.
            return {
                n: self.base_nodes
                * (r.flops / r.time_s)
                / (base.flops / base.time_s)
                for n, r in sorted(self.results.items())
            }
        return {
            n: self.base_nodes * base.time_s / r.time_s
            for n, r in sorted(self.results.items())
        }

    def efficiencies(self) -> dict[int, float]:
        """Parallel efficiency (speed-up / ideal)."""
        return {n: s / n for n, s in self.speedups().items()}
