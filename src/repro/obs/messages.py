"""Per-message trace capture and analysis (the Paraver role).

Section 5 lists Paraver among the deployed tools, and Section 4 credits
*post-mortem application trace analysis* with discovering the NFS/
interconnect timeouts behind the poor strong-scaling runs.  This module
provides that workflow for the simulated MPI:

* :class:`Tracer` wraps an :class:`~repro.mpi.api.MPIWorld` network so
  every message is recorded (src, dst, tag, bytes, send/receive time),
* :class:`TraceAnalysis` computes the communication matrix, per-rank
  time breakdown, late-sender statistics, and — the paper's use case —
  flags *stalls*: periods where a rank waits far longer than the
  expected network latency (the signature of timeouts).

For span-level traces (compute/comm/wait intervals viewable in
Perfetto) use :mod:`repro.obs.recorder` + :mod:`repro.obs.export`
instead; the two views are complementary and can run together — when a
recorder is enabled, :func:`traced_world` deliveries also land in it as
``deliver`` instants via the instrumented MPI layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np


@dataclass(frozen=True)
class MessageRecord:
    """One traced message."""

    src: int
    dst: int
    tag: int
    nbytes: int
    sent_at: float
    received_at: float

    @property
    def flight_time_s(self) -> float:
        return self.received_at - self.sent_at


class Tracer:
    """Wraps a network model, recording every transfer it prices.

    Drop-in: ``world = MPIWorld(n, Tracer(network))``.
    """

    def __init__(self, network: Any) -> None:
        self.network = network
        self.records: list[MessageRecord] = []

    # The MPIWorld network interface -----------------------------------
    def transfer_time_s(self, src: int, dst: int, nbytes: int) -> float:
        return self.network.transfer_time_s(src, dst, nbytes)

    def sender_occupancy_s(self, src: int, dst: int, nbytes: int) -> float:
        return self.network.sender_occupancy_s(src, dst, nbytes)

    # Recording hook ------------------------------------------------------
    def record(self, msg: Any) -> None:
        """Record a delivered :class:`~repro.mpi.api.Message`."""
        self.records.append(
            MessageRecord(
                src=msg.src,
                dst=msg.dst,
                tag=msg.tag,
                nbytes=msg.nbytes,
                sent_at=msg.sent_at,
                received_at=msg.received_at,
            )
        )

    def analysis(self, n_ranks: int) -> "TraceAnalysis":
        return TraceAnalysis(self.records, n_ranks)


@dataclass
class TraceAnalysis:
    """Aggregate views over a message trace."""

    records: list[MessageRecord]
    n_ranks: int
    _matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.n_ranks <= 0:
            raise ValueError("need at least one rank")

    # -- communication matrix ------------------------------------------
    def comm_matrix_bytes(self) -> np.ndarray:
        """(src, dst) -> total payload bytes."""
        if self._matrix is None:
            m = np.zeros((self.n_ranks, self.n_ranks))
            for r in self.records:
                m[r.src, r.dst] += r.nbytes
            self._matrix = m
        return self._matrix

    def message_count_matrix(self) -> np.ndarray:
        m = np.zeros((self.n_ranks, self.n_ranks), dtype=np.intp)
        for r in self.records:
            m[r.src, r.dst] += 1
        return m

    def total_bytes(self) -> int:
        return int(sum(r.nbytes for r in self.records))

    # -- timing statistics -----------------------------------------------
    def flight_times_s(self) -> np.ndarray:
        return np.array([r.flight_time_s for r in self.records])

    def median_flight_time_s(self) -> float:
        t = self.flight_times_s()
        if t.size == 0:
            raise ValueError("empty trace")
        return float(np.median(t))

    def stalls(self, factor: float = 10.0) -> list[MessageRecord]:
        """Messages whose flight time exceeds ``factor`` x the median —
        the timeout signature the paper found in its traces.

        Flight times are size-dependent, so the comparison normalises by
        an affine fit (latency + bytes * slope) over the trace."""
        if factor <= 1.0:
            raise ValueError("factor must exceed 1")
        if not self.records:
            return []
        sizes = np.array([r.nbytes for r in self.records], dtype=float)
        times = self.flight_times_s()
        if np.ptp(sizes) > 0:
            slope, intercept = np.polyfit(sizes, times, 1)
            slope = max(slope, 0.0)
        else:
            slope, intercept = 0.0, float(np.median(times))
        expected = np.maximum(intercept + slope * sizes, 1e-12)
        return [
            r
            for r, t, e in zip(self.records, times, expected)
            if t > factor * e
        ]

    def late_senders(self) -> dict[int, int]:
        """Messages received after a long queue delay, per source rank
        (a rough Scalasca 'late sender' count)."""
        out: dict[int, int] = {}
        for r in self.stalls(factor=5.0):
            out[r.src] = out.get(r.src, 0) + 1
        return out

    # -- rendering ----------------------------------------------------------
    def summary(self) -> str:
        """Paraver-style one-screen summary."""
        lines = [
            f"messages : {len(self.records)}",
            f"bytes    : {self.total_bytes()}",
        ]
        if self.records:
            t = self.flight_times_s()
            lines += [
                f"flight   : median {np.median(t) * 1e6:.1f} us, "
                f"p99 {np.percentile(t, 99) * 1e6:.1f} us",
                f"stalls   : {len(self.stalls())}",
            ]
        return "\n".join(lines)


def traced_world(n_ranks: int, network: Any, **world_kwargs: Any):
    """Build an :class:`MPIWorld` whose deliveries are traced; returns
    ``(world, tracer)``."""
    from repro.mpi.api import MPIWorld

    tracer = Tracer(network)
    world = MPIWorld(n_ranks, tracer, **world_kwargs)

    # Wrap each context's delivery path to record arrivals.
    for ctx in world.contexts:
        original = ctx._deliver

        def hooked(msg, _orig=original):
            tracer.record(msg)
            _orig(msg)

        ctx._deliver = hooked  # type: ignore[method-assign]
    return world, tracer
