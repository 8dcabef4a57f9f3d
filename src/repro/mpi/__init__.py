"""Message-passing substrate: a discrete-event MPI simulator.

Ranks are Python generators that exchange **real payloads** (NumPy
arrays) through the event engine; message timing is charged by a
pluggable network model (usually a
:class:`~repro.net.protocol.ProtocolStack` + topology via
:class:`~repro.cluster.cluster.Cluster`).  Collectives are implemented
from point-to-point operations with the classical algorithms (binomial
broadcast, recursive-doubling allreduce, dissemination barrier), so
their cost structure emerges from the same per-message model the paper
measures in Figure 7.  :mod:`repro.mpi.schedule` evaluates the
deterministic application programs without the engine, bit-identically.
"""

from repro.mpi.api import (
    ANY_SOURCE,
    ANY_TAG,
    Message,
    MPIWorld,
    RankContext,
    SyntheticPayload,
    UniformNetwork,
    payload_nbytes,
)
from repro.mpi.collectives import (
    allgather,
    allreduce,
    alltoall,
    barrier,
    bcast,
    gather,
    reduce,
    reduce_scatter,
    scan,
    scatter,
)
from repro.mpi.benchmarks import PingPongResult, ping_pong

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Message",
    "MPIWorld",
    "RankContext",
    "SyntheticPayload",
    "UniformNetwork",
    "payload_nbytes",
    "allgather",
    "allreduce",
    "alltoall",
    "barrier",
    "bcast",
    "gather",
    "reduce",
    "reduce_scatter",
    "scan",
    "scatter",
    "PingPongResult",
    "ping_pong",
]
