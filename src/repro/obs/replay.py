"""Deterministic-replay harness: the engine's correctness oracle.

The whole reproduction leans on one promise: the discrete-event engine
is deterministic — ties break by sequence number, randomness only ever
enters through explicit seeds.  This module *tests* that promise end to
end: run a named scenario under a fresh
:class:`~repro.obs.recorder.TraceRecorder`, canonicalise the trace
(:func:`repro.obs.export.canonical_text`), hash it, run again from the
same seed, and demand byte identity.  Because the canonical trace
includes every engine fire (with its sequence number) and every MPI
span, a hash match certifies the *execution order*, not just the final
makespan.

Scenarios cover the three layers the paper's results rest on:

=============  ==========================================================
``pingpong``   4-rank pairwise IMB ping-pong over TCP/IP on 1 GbE
``imb``        IMB SendRecv + Exchange rings plus a ping-pong sweep
``hpl``        model-mode HPL (1D block LU) on an 8-node Tibidabo slice
``reliability`` PCIe fault injection, degraded-cluster rebuild, hangs,
               and a wall-power sample
``faults``     HPL under live faults: mid-run node crash + link outages,
               survived via checkpoint/restart (:mod:`repro.fault`)
=============  ==========================================================

Every scenario is a pure function of its integer seed, so *different*
seeds must produce *different* traces — also asserted by the property
tests in ``tests/obs/test_determinism.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.obs.export import canonical_text, trace_hash
from repro.obs.recorder import TraceRecorder, recording


# ---------------------------------------------------------------------------
# Scenarios (each runs a workload; recording is handled by the harness)
# ---------------------------------------------------------------------------

def _tcp_stack():
    from repro.net.protocol import TCP_IP, ProtocolStack

    return ProtocolStack(TCP_IP, core_name="Cortex-A9", freq_ghz=1.0)


def _scenario_pingpong(seed: int) -> None:
    """Pairwise ping-pong on 4 ranks (0<->1, 2<->3); the seed draws the
    message-size schedule."""
    from repro.mpi.api import MPIWorld, SyntheticPayload, UniformNetwork

    rng = np.random.default_rng(seed)
    sizes = [int(s) for s in rng.choice((64, 256, 1024, 4096), size=3)]
    world = MPIWorld(4, UniformNetwork(_tcp_stack()))

    def rank_fn(ctx):
        peer = ctx.rank ^ 1
        for nbytes in sizes:
            payload = SyntheticPayload(nbytes)
            for _ in range(2):
                if ctx.rank < peer:
                    yield from ctx.send(peer, payload)
                    yield from ctx.recv(peer)
                else:
                    yield from ctx.recv(peer)
                    yield from ctx.send(peer, payload)
        return ctx.now

    world.run(rank_fn)


def _scenario_imb(seed: int) -> None:
    """The IMB slice of Figure 7: ping-pong, SendRecv and Exchange."""
    from repro.mpi.benchmarks import (
        exchange_benchmark,
        ping_pong,
        sendrecv_benchmark,
    )

    rng = np.random.default_rng(seed)
    stack = _tcp_stack()
    for nbytes in (int(s) for s in rng.choice((8, 512, 8192), size=2)):
        ping_pong(stack, nbytes, repetitions=3)
    sendrecv_benchmark(stack, 4, int(rng.choice((256, 2048))), repetitions=2)
    exchange_benchmark(stack, 4, int(rng.choice((256, 2048))), repetitions=2)


def _scenario_hpl(seed: int) -> None:
    """Model-mode HPL on an 8-node Tibidabo slice; the seed picks the
    matrix order (a strong-scaling point, not weak-scaled)."""
    from repro.apps.hpl import HPL
    from repro.cluster.cluster import tibidabo

    n = 1024 + 128 * (seed % 4)
    HPL().simulate(tibidabo(8), 8, n=n, nb=128)


def _scenario_reliability(seed: int) -> None:
    """Section 6 bring-up: PCIe boot failures, the degraded cluster that
    survives, per-node hang times, and one wall-power sample."""
    from repro.cluster.cluster import degraded_tibidabo
    from repro.cluster.power import ClusterPowerModel
    from repro.cluster.reliability import PCIeFaultInjector

    inj = PCIeFaultInjector(p_boot_failure=0.05, seed=seed)
    cluster, _lost = degraded_tibidabo(n_nodes=32, injector=inj)
    inj.hang_times_s(cluster.n_nodes)
    ClusterPowerModel().sample(cluster, 0.0)


def _scenario_faults(seed: int) -> None:
    """Live fault injection: model-mode HPL on 8 Tibidabo nodes with a
    scripted mid-run node crash plus seed-drawn crashes and link
    outages, survived via checkpoint/restart.  Exercises the whole
    injector path: kill_rank, rollback/restart accounting, and the
    TCP-style link-retry pricing — all of it must replay
    byte-identically from one seed."""
    from repro.apps.hpl import HPLConfig, rank_program
    from repro.cluster.cluster import tibidabo
    from repro.fault import (
        CheckpointPolicy,
        FaultEvent,
        FaultPlan,
        ResilientRunner,
    )

    cluster = tibidabo(8)
    cfg = HPLConfig(n=512 + 128 * (seed % 2), nb=128)
    plan = FaultPlan.generate(
        8,
        horizon_s=2.0,
        seed=seed,
        crash_mtbf_s=4.0,  # seconds: accelerated so seeds vary the mix
        link_loss_rate_hz=2.0,
        link_outage_s=0.01,
        extra=[FaultEvent(0.04, 3, "pcie_hang")],  # guaranteed mid-run
    )
    policy = CheckpointPolicy(
        checkpoint_cost_s=0.004, restart_cost_s=0.008, interval_s=0.025
    )
    ResilientRunner(
        cluster, plan, policy, net_kwargs={"rto_s": 0.005}
    ).run(rank_program(), cfg)


SCENARIOS: dict[str, Callable[[int], None]] = {
    "pingpong": _scenario_pingpong,
    "imb": _scenario_imb,
    "hpl": _scenario_hpl,
    "reliability": _scenario_reliability,
    "faults": _scenario_faults,
}


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def record_scenario(name: str, seed: int = 0) -> TraceRecorder:
    """Run ``name`` from ``seed`` under a fresh recorder; return it."""
    try:
        fn = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; have {sorted(SCENARIOS)}"
        ) from None
    with recording(scenario=name, seed=seed) as rec:
        fn(seed)
    return rec


def scenario_canonical_text(name: str, seed: int = 0) -> str:
    return canonical_text(record_scenario(name, seed))


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of a determinism check."""

    scenario: str
    seed: int
    hashes: tuple[str, ...]
    records: int

    @property
    def deterministic(self) -> bool:
        return len(set(self.hashes)) == 1


def check_determinism(name: str, seed: int = 0, runs: int = 2) -> ReplayReport:
    """Run the scenario ``runs`` times from one seed and compare hashes."""
    if runs < 2:
        raise ValueError("a determinism check needs at least two runs")
    recs = [record_scenario(name, seed) for _ in range(runs)]
    return ReplayReport(
        scenario=name,
        seed=seed,
        hashes=tuple(trace_hash(r) for r in recs),
        records=len(recs[0]),
    )


def assert_deterministic(name: str, seed: int = 0, runs: int = 2) -> ReplayReport:
    """:func:`check_determinism` that raises on divergence."""
    report = check_determinism(name, seed, runs)
    if not report.deterministic:
        raise AssertionError(
            f"scenario {name!r} (seed {seed}) diverged across {runs} runs: "
            f"{report.hashes}"
        )
    return report
