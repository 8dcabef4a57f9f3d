"""Point-to-point MPI simulation API.

A :class:`MPIWorld` hosts ``n`` ranks, each a generator taking a
:class:`RankContext`.  Ranks yield context operations::

    def worker(ctx):
        data = np.arange(10.0)
        if ctx.rank == 0:
            yield from ctx.send(1, data)
        else:
            msg = yield from ctx.recv(0)
        yield ctx.compute(1e-3)          # one millisecond of work
        yield ctx.compute_flops(2e6)     # or work in FLOPs

Message cost: the sender is occupied for the stack's CPU occupancy,
the payload arrives at the destination ``transfer_time`` later
(latency + size/bandwidth + switch hops), and a receive completes when
a matching message has arrived.  Payloads are real objects — NumPy
arrays pass through unchanged, so distributed numerics (the HPL LU in
:mod:`repro.apps.hpl`) compute true results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable

import numpy as np

from repro.sim.engine import Engine, Event, SimFailure

# Per-rank spans (compute / comm / wait / net) flow into the unified
# observability layer; the engine caches the active recorder at world
# construction, so a disabled recorder costs one attribute check per op.

ANY_SOURCE = -1
ANY_TAG = -1


class RankFailure(SimFailure):
    """A rank died (node crash, PCIe hang, thermal shutdown).

    Raised inside the dying rank's generator, and thrown into any peer
    blocked on a receive posted against that specific source — the MPI
    analogue of a ULFM process-failure notification.  Catchable; an
    uncaught ``RankFailure`` is contained per-process and re-raised by
    :meth:`MPIWorld.run` so a resilient runner can roll back and retry.
    """

    def __init__(self, rank: int, cause: Any = None) -> None:
        super().__init__(f"rank {rank} failed" + (f" ({cause})" if cause else ""))
        self.rank = rank
        self.cause = cause


class RecvTimeout(SimFailure):
    """A ``recv(timeout=...)`` expired before a matching message
    arrived — the failure-detection primitive for peers that die
    silently (the Tegra PCIe hang leaves no other signal)."""

    def __init__(self, rank: int, src: int, tag: int, timeout_s: float) -> None:
        super().__init__(
            f"rank {rank}: recv(src={src}, tag={tag}) timed out "
            f"after {timeout_s} s"
        )
        self.rank = rank
        self.src = src
        self.tag = tag
        self.timeout_s = timeout_s


class DeadlockError(RuntimeError):
    """The engine drained with ranks still blocked.

    Carries a structured diagnostic instead of a bare message: for each
    stuck rank, the pending receives it posted (``(src, tag)`` pairs,
    ``-1`` = wildcard) and a summary of the unmatched messages sitting
    in its mailbox (``(src, tag, nbytes)`` triples).
    """

    def __init__(
        self,
        unfinished: list[str],
        pending: dict[int, list[tuple[int, int]]],
        mailboxes: dict[int, list[tuple[int, int, int]]],
    ) -> None:
        self.unfinished = unfinished
        self.pending = pending
        self.mailboxes = mailboxes
        lines = [f"deadlock: ranks never completed: {unfinished}"]
        for rank in sorted(pending):
            lines.append(
                f"  rank {rank}: pending recv (src, tag): {pending[rank]}"
            )
            box = mailboxes.get(rank, [])
            if box:
                lines.append(
                    f"  rank {rank}: unmatched mailbox "
                    f"(src, tag, nbytes): {box}"
                )
        super().__init__("\n".join(lines))


@dataclass(frozen=True)
class SyntheticPayload:
    """A payload that is pure size — used by the application *models*
    (PEPC/GROMACS/... comm skeletons) where the bytes matter but the
    values do not."""

    nbytes: int

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("nbytes must be non-negative")


def payload_nbytes(obj: Any) -> int:
    """Wire size of a payload object."""
    if isinstance(obj, SyntheticPayload):
        return obj.nbytes
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (int, float, complex, np.floating, np.integer)):
        return 8
    if isinstance(obj, (tuple, list)):
        return sum(payload_nbytes(x) for x in obj) + 8
    if obj is None:
        return 0
    return 64  # envelope estimate for small python objects


@dataclass(frozen=True)
class Message:
    """A delivered message."""

    src: int
    dst: int
    tag: int
    payload: Any
    nbytes: int
    sent_at: float
    received_at: float


class UniformNetwork:
    """The simplest network model: one protocol stack everywhere, no
    topology (every pair one switch hop apart).  Good for two-node
    benchmarks and unit tests; clusters use
    :class:`repro.cluster.cluster.ClusterNetwork`."""

    def __init__(self, stack, hop_latency_us: float = 0.0) -> None:
        self.stack = stack
        self.hop_latency_us = hop_latency_us

    def transfer_time_s(self, src: int, dst: int, nbytes: int) -> float:
        if src == dst:
            return 1e-7  # self-send through shared memory
        return self.stack.transfer_time_s(nbytes) + self.hop_latency_us * 1e-6

    def sender_occupancy_s(self, src: int, dst: int, nbytes: int) -> float:
        if src == dst:
            return 0.0
        return self.stack.cpu_occupancy_s(nbytes)

    def link_class(self, src: int, dst: int) -> bool:
        """Whether the pair is a self-send: the only thing besides the
        size that the times above depend on."""
        return src == dst


class _Delivery:
    """Deferred arrival of one in-flight message.

    A slotted callable attached to the wire-transfer timeout instead of
    a per-send closure: ``isend`` is the hottest MPI path and a closure
    allocates one cell per captured variable per message.  Reads
    ``engine._rec`` at fire time — identical to capture time, since an
    engine's recorder is fixed at construction."""

    __slots__ = ("world", "src", "dst", "tag", "payload", "nbytes", "sent_at")

    def __init__(
        self,
        world: "MPIWorld",
        src: int,
        dst: int,
        tag: int,
        payload: Any,
        nbytes: int,
        sent_at: float,
    ) -> None:
        self.world = world
        self.src = src
        self.dst = dst
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        self.sent_at = sent_at

    def __call__(self, _ev: Event | None = None) -> None:
        world = self.world
        engine = world.engine
        now = engine.now
        msg = Message(
            src=self.src,
            dst=self.dst,
            tag=self.tag,
            payload=self.payload,
            nbytes=self.nbytes,
            sent_at=self.sent_at,
            received_at=now,
        )
        rec = engine._rec
        if rec is not None:
            rec.instant(
                "deliver", "net", now,
                rank=self.dst, src=self.src, bytes=self.nbytes, tag=self.tag,
            )
        world.contexts[self.dst]._deliver(msg)


@dataclass
class RankStats:
    """Accounting per rank."""

    compute_s: float = 0.0
    comm_wait_s: float = 0.0
    messages_sent: int = 0
    bytes_sent: int = 0


class RankContext:
    """Per-rank handle passed to rank generators."""

    def __init__(self, world: "MPIWorld", rank: int) -> None:
        self.world = world
        self.rank = rank
        self.stats = RankStats()
        self.failed = False
        self._mailbox: list[Message] = []
        self._pending_recv: list[tuple[int, int, Event]] = []

    # -- basics ------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.world.size

    @property
    def now(self) -> float:
        return self.world.engine.now

    def compute(self, seconds: float) -> Event:
        """Occupy this rank with computation for ``seconds``."""
        if seconds < 0:
            raise ValueError("compute time must be non-negative")
        self.stats.compute_s += seconds
        engine = self.world.engine
        rec = engine._rec
        if rec is not None:
            rec.span(
                "compute", "compute", engine.now, engine.now + seconds,
                rank=self.rank,
            )
        return engine.timeout(seconds)

    def compute_flops(self, flops: float) -> Event:
        """Computation expressed in FLOPs, at this rank's node speed."""
        gflops = self.world.rank_gflops(self.rank)
        return self.compute(flops / (gflops * 1e9))

    # -- point-to-point ------------------------------------------------------
    def send(self, dst: int, payload: Any, tag: int = 0) -> Generator:
        """Blocking-ish send: returns once the sender CPU is free (the
        wire transfer continues in the background)."""
        ev = self.isend(dst, payload, tag)
        yield ev
        return ev.value

    def isend(self, dst: int, payload: Any, tag: int = 0) -> Event:
        """Start a send; the returned event fires when the sender's CPU
        occupancy for this message ends."""
        if not (0 <= dst < self.world.size):
            raise ValueError(f"destination {dst} out of range")
        # The model apps send SyntheticPayload almost exclusively; skip
        # the generic type dispatch for them.
        nbytes = (
            payload.nbytes
            if type(payload) is SyntheticPayload
            else payload_nbytes(payload)
        )
        net = self.world.network
        occupy = net.sender_occupancy_s(self.rank, dst, nbytes)
        transfer = net.transfer_time_s(self.rank, dst, nbytes)
        engine = self.world.engine
        sent_at = engine.now
        self.stats.messages_sent += 1
        self.stats.bytes_sent += nbytes
        rec = engine._rec
        if rec is not None:
            rec.span(
                f"send->{dst}", "comm", sent_at, sent_at + occupy,
                rank=self.rank, dst=dst, bytes=nbytes, tag=tag,
            )
            rec.span(
                f"xfer {self.rank}->{dst}", "net", sent_at,
                sent_at + transfer, rank=self.rank, dst=dst, bytes=nbytes,
            )
            rec.counter(
                "mpi.bytes_sent", sent_at, self.stats.bytes_sent,
                rank=self.rank,
            )

        delivery = _Delivery(
            self.world, self.rank, dst, tag, payload, nbytes, sent_at
        )
        if rec is None:
            # Untraced fast path: schedule the delivery callable directly
            # instead of building a timeout Event just to hang one
            # callback on it.  call_in consumes exactly one sequence
            # number, like timeout, so dispatch order is unchanged.
            engine.call_in(transfer, delivery)
        else:
            # Traced: keep the Event so the schedule/fire instants (and
            # their seq numbers) match the golden traces byte-for-byte.
            engine.timeout(transfer).callbacks.append(delivery)
        return engine.timeout(occupy)

    def _deliver(self, msg: Message) -> None:
        if self.failed:
            return  # a crashed node receives nothing; the bytes are lost
        for i, (src, tag, ev) in enumerate(self._pending_recv):
            if (src in (ANY_SOURCE, msg.src)) and (tag in (ANY_TAG, msg.tag)):
                del self._pending_recv[i]
                ev.succeed(msg)
                return
        self._mailbox.append(msg)

    def recv(
        self,
        src: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ) -> Generator:
        """Blocking receive; returns the :class:`Message`.

        With ``timeout`` the wait is bounded: if no matching message has
        arrived after ``timeout`` simulated seconds the posted receive
        is withdrawn and :class:`RecvTimeout` is raised.  A matching
        message arriving later simply lands in the mailbox for a retry.

        When the message wins the race, the losing watchdog timer is
        *cancelled* — otherwise every timed receive would leave a dead
        entry in the scheduler heap until its far-future expiry, and
        the run's drain (hence its makespan) would stretch out to the
        last dead watchdog instead of the last real event.
        """
        ev = self.irecv(src, tag)
        t0 = self.now
        if timeout is None or ev.triggered:
            msg = yield ev
        else:
            if timeout < 0:
                raise ValueError("timeout must be non-negative")
            engine = self.world.engine
            timer = engine.timeout(timeout)
            try:
                yield engine.any_of([ev, timer])
            finally:
                if not timer.triggered:
                    timer.cancel()
            if not ev.triggered:
                self._cancel_recv(ev)
                self.stats.comm_wait_s += self.now - t0
                rec = engine._rec
                if rec is not None:
                    rec.instant(
                        "recv.timeout", "wait", self.now,
                        rank=self.rank, src=src, tag=tag,
                    )
                raise RecvTimeout(self.rank, src, tag, timeout)
            msg = ev.value
        self.stats.comm_wait_s += self.now - t0
        rec = self.world.engine._rec
        if rec is not None:
            rec.span(
                f"recv<-{msg.src}", "wait", t0, self.now,
                rank=self.rank, src=msg.src, bytes=msg.nbytes, tag=msg.tag,
            )
        return msg

    def irecv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Event:
        """Post a receive; the event fires with the matching Message.

        A receive posted against a *specific* source that is already
        dead fails immediately with :class:`RankFailure` — waiting for a
        crashed node to speak again would deadlock the survivor.
        """
        for i, msg in enumerate(self._mailbox):
            if (src in (ANY_SOURCE, msg.src)) and (tag in (ANY_TAG, msg.tag)):
                del self._mailbox[i]
                ev = self.world.engine.event()
                ev.succeed(msg)
                return ev
        ev = self.world.engine.event()
        if self.world._any_failed and src >= 0 and self.world.contexts[src].failed:
            ev.fail(RankFailure(src, "peer recv"))
            return ev
        self._pending_recv.append((src, tag, ev))
        return ev

    def _cancel_recv(self, ev: Event) -> None:
        """Withdraw a posted receive (timeout expiry, rank death)."""
        for i, (_src, _tag, pending) in enumerate(self._pending_recv):
            if pending is ev:
                del self._pending_recv[i]
                return

    def exchange(
        self,
        sends: list[tuple[int, Any, int]],
        recvs: list[tuple[int, int]],
    ) -> Generator:
        """Post several sends and receives concurrently and wait for all
        — the correct halo-exchange shape (pairwise ``sendrecv`` ordered
        by neighbour index serialises into an O(p) dependency chain).

        :param sends: ``(dst, payload, tag)`` triples.
        :param recvs: ``(src, tag)`` pairs.
        :returns: received messages, in ``recvs`` order.
        """
        send_evs = [self.isend(d, pl, t) for d, pl, t in sends]
        recv_evs = [self.irecv(s, t) for s, t in recvs]
        t0 = self.now
        yield self.world.engine.all_of(send_evs + recv_evs)
        self.stats.comm_wait_s += self.now - t0
        rec = self.world.engine._rec
        if rec is not None:
            rec.span(
                "exchange", "wait", t0, self.now,
                rank=self.rank, sends=len(sends), recvs=len(recvs),
            )
        return [ev.value for ev in recv_evs]

    def sendrecv(
        self,
        dst: int,
        payload: Any,
        src: int = ANY_SOURCE,
        send_tag: int = 0,
        recv_tag: int = ANY_TAG,
    ) -> Generator:
        """Simultaneous send + receive (the halo-exchange primitive)."""
        send_ev = self.isend(dst, payload, send_tag)
        recv_ev = self.irecv(src, recv_tag)
        t0 = self.now
        both = self.world.engine.all_of([send_ev, recv_ev])
        yield both
        self.stats.comm_wait_s += self.now - t0
        rec = self.world.engine._rec
        if rec is not None:
            rec.span("sendrecv", "wait", t0, self.now, rank=self.rank, dst=dst)
        return recv_ev.value


class MPIWorld:
    """A set of simulated MPI ranks over a network model.

    :param n_ranks: world size.
    :param network: object with ``transfer_time_s(src, dst, nbytes)`` and
        ``sender_occupancy_s(src, dst, nbytes)``.
    :param rank_gflops: per-rank achieved GFLOPS (scalar or callable
        ``rank -> GFLOPS``) used by :meth:`RankContext.compute_flops`.
    """

    def __init__(
        self,
        n_ranks: int,
        network: Any,
        rank_gflops: float | Callable[[int], float] = 1.0,
    ) -> None:
        if n_ranks <= 0:
            raise ValueError("need at least one rank")
        self.size = n_ranks
        self.network = network
        self.engine = Engine()
        self._rank_gflops = rank_gflops
        self.contexts = [RankContext(self, r) for r in range(n_ranks)]
        self._any_failed = False
        self._procs: dict[int, "Any"] = {}
        self._daemons: list[Any] = []

    def rank_gflops(self, rank: int) -> float:
        if callable(self._rank_gflops):
            return float(self._rank_gflops(rank))
        return float(self._rank_gflops)

    def spawn_daemon(self, gen: Generator, name: str = "daemon") -> Any:
        """Start a background process (e.g. a fault injector) that is
        *not* a rank: the run stops when every rank finishes, even if
        the daemon still has timers pending — a crash scheduled after
        job completion must not stretch the makespan."""
        proc = self.engine.process(gen, name=name)
        self._daemons.append(proc)
        return proc

    def kill_rank(self, rank: int, cause: Any = None) -> None:
        """Crash ``rank`` at the current simulated time.

        The dying rank has :class:`RankFailure` thrown into it, its
        posted receives are withdrawn, and every *peer* blocked on a
        receive from this specific rank fails immediately (wildcard
        receives keep waiting — another sender may still match; they
        surface via ``recv(timeout=...)`` instead).
        """
        if not (0 <= rank < self.size):
            raise ValueError(f"rank {rank} out of range")
        ctx = self.contexts[rank]
        if ctx.failed:
            return
        ctx.failed = True
        self._any_failed = True
        ctx._pending_recv.clear()
        rec = self.engine._rec
        if rec is not None:
            rec.instant(
                "rank.failed", "fault", self.engine.now,
                rank=rank, cause=str(cause) if cause is not None else "",
            )
            rec.bump("fault.rank_failures")
        proc = self._procs.get(rank)
        if proc is not None:
            proc.throw(RankFailure(rank, cause))
        for other in self.contexts:
            if other is ctx or other.failed:
                continue
            doomed = [
                ev for src, _tag, ev in other._pending_recv if src == rank
            ]
            for ev in doomed:
                other._cancel_recv(ev)
                ev.fail(RankFailure(rank, cause))

    def run(
        self,
        rank_fn: Callable[..., Generator],
        *args: Any,
        ranks: Iterable[int] | None = None,
    ) -> "MPIRunResult":
        """Launch ``rank_fn(ctx, *args)`` on every rank and run to
        completion.  Returns makespan and per-rank results/stats.

        Failure semantics: a rank dying of a :class:`SimFailure`
        (``RankFailure``, ``RecvTimeout``, ...) re-raises that failure
        here — catchable by a resilient runner.  Ranks stuck forever
        with no failure raise a structured :class:`DeadlockError`.
        """
        selected = range(self.size) if ranks is None else list(ranks)
        procs = [
            self.engine.process(
                rank_fn(self.contexts[r], *args), name=f"rank{r}"
            )
            for r in selected
        ]
        self._procs = dict(zip(selected, procs))
        if self._daemons:
            # Run until every rank *settles* (finishes or fails) so that
            # survivors observe a crash — cascade, catch RankFailure, or
            # hit their recv timeouts — but a daemon's still-pending
            # timers (a crash scheduled after the job would end) cannot
            # stretch the makespan.  all_of is unusable here: it fails
            # fast on the first rank death, freezing the clock before
            # peers process their failure notifications.
            settle = self.engine.event()
            state = {"left": len(procs)}

            def _one_settled(_ev: Event) -> None:
                state["left"] -= 1
                if state["left"] == 0:
                    settle.succeed()

            for proc in procs:
                proc.completion.callbacks.append(_one_settled)
            self.engine.run_until(settle)
        else:
            self.engine.run()
        for proc in procs:
            if proc.failure is not None:
                raise proc.failure
        unfinished = [p.name for p in procs if not p.done]
        if unfinished:
            raise DeadlockError(
                unfinished,
                pending={
                    r: [(src, tag) for src, tag, _ev in
                        self.contexts[r]._pending_recv]
                    for r, p in zip(selected, procs) if not p.done
                },
                mailboxes={
                    r: [(m.src, m.tag, m.nbytes) for m in
                        self.contexts[r]._mailbox]
                    for r, p in zip(selected, procs) if not p.done
                },
            )
        return MPIRunResult(
            makespan_s=self.engine.now,
            results=[p.result for p in procs],
            stats=[self.contexts[r].stats for r in selected],
        )


@dataclass
class MPIRunResult:
    """Outcome of one simulated MPI program."""

    makespan_s: float
    results: list[Any]
    stats: list[RankStats] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes_sent for s in self.stats)

    @property
    def total_messages(self) -> int:
        return sum(s.messages_sent for s in self.stats)
