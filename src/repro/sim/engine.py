"""A minimal deterministic discrete-event engine.

Design:

* :class:`Event` — a one-shot occurrence that fires at a scheduled time
  (or when explicitly succeeded) and carries an optional value.
* :class:`Process` — wraps a generator.  The generator yields events;
  the process sleeps until the yielded event fires, then is resumed with
  the event's value.  A process is itself awaitable (its completion is
  an event), enabling fork/join structures.
* :class:`Engine` — the event heap and clock.  Ties are broken by a
  monotonically increasing sequence number, so runs are deterministic.

The engine is single-threaded and allocation-light.  Heap entries are
plain slotted tuples ``(time, seq, kind, obj, arg)`` where ``kind`` is a
small integer dispatched by the run loop — no per-schedule closure is
ever allocated on the hot path (``timeout``/``_ready``/
``_schedule_throw``).  Arbitrary callables still go through
:meth:`Engine._push` as ``_KIND_CALL`` entries.  Because every schedule
point consumes exactly one sequence number, exactly as the closure-based
scheduler did, the execution order — and therefore every canonical
trace — is byte-identical to the previous implementation (pinned by the
golden traces under ``tests/data/``).

A 192-rank MPI program with tens of thousands of messages simulates in
well under a second; ``python -m repro bench`` tracks the scheduler's
throughput over time.  The Figure 6 sweeps do not need the engine: their
application models run as event-free clock recurrences
(:mod:`repro.mpi.schedule`), and the engine is their reference oracle
and the path every traced, faulty or irregular program takes.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable

from repro.obs.recorder import current as _obs_current

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Heap-entry kinds, dispatched without closure allocation.  Ordered by
#: observed frequency in the MPI workloads (timeouts dominate: every
#: compute span, CPU occupancy and wire transfer is one).
_KIND_TIMEOUT = 0  # obj = Event, arg = value  -> obj.succeed(arg)
_KIND_STEP = 1     # obj = Process, arg = value -> obj._step(arg)
_KIND_THROW = 2    # obj = Process, arg = exc  -> obj._step(None, arg)
_KIND_CALL = 3     # obj = callable, arg unused -> obj()


class Interrupt(Exception):
    """Raised inside a process that is interrupted while waiting."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class SimFailure(Exception):
    """Base class for *modelled* failures (a crashed peer, a receive
    timeout, an injected fault).

    A process that dies of a ``SimFailure`` is contained: the process is
    marked failed and its completion event fails, but the engine keeps
    running — the failure propagates along wait edges instead of tearing
    down the whole simulation.  Any other exception escaping a process
    is a programming error and still aborts the run loudly.
    """


class Event:
    """A one-shot event; processes wait on it by yielding it.

    An event either *succeeds* (fires with a value) or *fails* (fires
    with an exception that is thrown into every waiter).  ``triggered``
    covers both; ``failed`` is the exception or ``None``.
    """

    __slots__ = (
        "engine", "triggered", "cancelled", "value", "failed",
        "_waiters", "callbacks",
    )

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.triggered = False
        self.cancelled = False
        self.value: Any = None
        self.failed: BaseException | None = None
        # Lazily allocated: most events (every timeout) gain at most one
        # waiter and zero callbacks, so the empty list would be pure
        # allocation overhead on the hot path.  ``callbacks`` stays a
        # real list — it is part of the public surface (join code and
        # the MPI layer append to it directly).
        self._waiters: list[Process] | None = None
        self.callbacks: list[Callable[[Event], None]] = []

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event immediately (at the current simulation time).

        Callback and waiter lists are dropped once run, so a fired event
        holds no references into joins or processes that outlive it.
        """
        if self.triggered:
            raise RuntimeError("event already triggered")
        if self.cancelled:
            raise RuntimeError("event was cancelled")
        self.triggered = True
        self.value = value
        if self.callbacks:
            callbacks, self.callbacks = self.callbacks, []
            for cb in callbacks:
                cb(self)
        waiters = self._waiters
        if waiters:
            self._waiters = None
            engine = self.engine
            if engine._rec is None:
                # Fast path: the dominant timeout -> single-waiter ->
                # step chain pushes the step entry directly, with no
                # recorder bump and no intermediate method call.
                heap = engine._heap
                now = engine.now
                seq = engine._seq
                for proc in waiters:
                    _heappush(heap, (now, seq, _KIND_STEP, proc, value))
                    seq += 1
                engine._seq = seq
            else:
                for proc in waiters:
                    engine._ready(proc, value)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Fire the event as *failed*: every waiter has ``exc`` thrown
        into it at the current simulation time, and join callbacks see
        ``self.failed`` set.  Used to surface rank deaths to peers."""
        if self.triggered:
            raise RuntimeError("event already triggered")
        if self.cancelled:
            raise RuntimeError("event was cancelled")
        self.triggered = True
        self.failed = exc
        if self.callbacks:
            callbacks, self.callbacks = self.callbacks, []
            for cb in callbacks:
                cb(self)
        waiters = self._waiters
        if waiters:
            self._waiters = None
            for proc in waiters:
                self.engine._schedule_throw(proc, exc)
        return self

    def add_waiter(self, proc: "Process") -> None:
        if self.triggered:
            if self.failed is not None:
                self.engine._schedule_throw(proc, self.failed)
            else:
                self.engine._ready(proc, self.value)
        elif self._waiters is None:
            self._waiters = [proc]
        else:
            self._waiters.append(proc)

    def remove_waiter(self, proc: "Process") -> None:
        """Withdraw a waiting process (used by :meth:`Process.interrupt`).

        O(n) in the number of waiters on this event — a linear scan.
        Fine at the simulator's fan-ins (an event rarely has more than a
        handful of waiters; the heavy fan-in constructs ``all_of`` /
        ``any_of`` use callbacks, not waiters).  If interrupt-heavy
        workloads ever wait thousands of processes on one event, replace
        the list with an ordered dict keyed by process.
        """
        if self._waiters is not None:
            try:
                self._waiters.remove(proc)
            except ValueError:
                pass

    def remove_callback(self, cb: Callable[["Event"], None]) -> None:
        """Remove every occurrence of ``cb`` (O(n) in callback count)."""
        self.callbacks = [c for c in self.callbacks if c is not cb]

    def cancel(self) -> None:
        """Retire a pending timer event that nothing waits on any more.

        The canonical caller is ``recv(timeout=...)`` after the message
        won the race: the losing watchdog timer would otherwise sit in
        the scheduler heap until its (possibly far-future) expiry,
        growing the heap without bound in long-running apps and — worse
        — stretching ``Engine.run``'s drain (and therefore a run's
        makespan) out to the dead timer's firing time.

        Cancellation is lazy: the heap entry is skipped *silently* when
        popped (no ``fire`` instant, no clock advance), and the heap is
        compacted in place once cancelled entries outnumber live ones.
        A triggered or already-cancelled event is a no-op.  Only cancel
        events with no remaining waiters/callbacks that matter: both
        lists are dropped here.
        """
        if self.triggered or self.cancelled:
            return
        self.cancelled = True
        self._waiters = None
        self.callbacks = []
        self.engine._note_cancelled()


class Process:
    """A running generator-based simulated process."""

    __slots__ = (
        "engine", "gen", "name", "done", "result", "failure",
        "_completion", "_waiting_on", "_rec",
    )

    def __init__(self, engine: "Engine", gen: Generator, name: str = "") -> None:
        self.engine = engine
        self.gen = gen
        self.name = name or repr(gen)
        self.done = False
        self.result: Any = None
        self.failure: SimFailure | None = None
        self._completion = Event(engine)
        self._waiting_on: Event | None = None
        self._rec = engine._rec  # fixed for the engine's lifetime

    @property
    def completion(self) -> Event:
        """Event fired (with the return value) when the process finishes."""
        return self._completion

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        self.throw(Interrupt(cause))

    def throw(self, exc: BaseException) -> None:
        """Throw an arbitrary exception into the process at the current
        time (the cancellation primitive fault injection kills ranks
        with).  A no-op on finished processes."""
        if self.done:
            return
        if self._waiting_on is not None:
            self._waiting_on.remove_waiter(self)
            self._waiting_on = None
        self.engine._schedule_throw(self, exc)

    def _step(self, value: Any = None, exc: BaseException | None = None) -> None:
        if self.done:
            # Stale wakeup: a same-timestamp step that completed the
            # process was already dispatched (e.g. an event succeeded
            # and a throw was queued behind it).  Stepping the finished
            # generator would leak the exception out of Engine.run.
            return
        rec = self._rec
        if rec is not None:
            rec.instant(f"step:{self.name}", "engine", self.engine.now)
        if exc is not None and self._waiting_on is not None:
            # A queued throw dispatched after the process re-armed on
            # another event: withdraw from that event's waiter list, or
            # its later firing would step a wait that no longer exists.
            self._waiting_on.remove_waiter(self)
        self._waiting_on = None
        try:
            if exc is not None:
                target = self.gen.throw(exc)
            else:
                target = self.gen.send(value)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            self._completion.succeed(stop.value)
            return
        except SimFailure as failure:
            # A modelled fault killed the process: contain it.  The
            # failed completion event propagates the failure to joiners
            # (e.g. a rank waiting on a spawned panel pipeline).
            self.done = True
            self.failure = failure
            self._completion.fail(failure)
            return
        cls = target.__class__
        if cls is not Event:
            if cls is Process or isinstance(target, Process):
                target = target._completion
            elif not isinstance(target, Event):
                raise TypeError(
                    f"process {self.name!r} yielded {type(target).__name__}; "
                    "processes must yield Event or Process objects"
                )
        self._waiting_on = target
        # Inlined Event.add_waiter — this is the single hottest call
        # site (every yield lands here).
        if target.triggered:
            if target.failed is not None:
                self.engine._schedule_throw(self, target.failed)
            else:
                self.engine._ready(self, target.value)
        elif target._waiters is None:
            target._waiters = [self]
        else:
            target._waiters.append(self)


class Engine:
    """The simulation clock and scheduler.

    An engine constructed while :func:`repro.obs.recorder.enable` is in
    effect captures the active recorder for its lifetime and emits
    schedule/fire/step events into it; otherwise ``_rec`` is ``None``
    and every hook reduces to one ``is None`` check.
    """

    __slots__ = ("now", "_heap", "_seq", "_active", "_rec", "_cancelled")

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, int, Any, Any]] = []
        self._seq = 0
        self._active = 0  # live (not finished) processes
        self._rec = _obs_current()
        self._cancelled = 0  # cancelled timer entries still in the heap

    def _note_cancelled(self) -> None:
        """Account one :meth:`Event.cancel`; compact the heap once dead
        entries outnumber live ones (asyncio's strategy), so cancel-heavy
        workloads keep the heap O(live timers), amortised O(1) per
        cancel.  Compaction filters a list and re-heapifies; pop order
        is untouched because ``(time, seq)`` stays a total order."""
        self._cancelled += 1
        if self._rec is not None:
            self._rec.bump("engine.cancelled")
        heap = self._heap
        if self._cancelled > 64 and self._cancelled * 2 > len(heap):
            # In place (slice assignment): the run loops hold a local
            # alias of the heap list, which must stay valid.
            heap[:] = [
                entry
                for entry in heap
                if not (entry[2] == _KIND_TIMEOUT and entry[3].cancelled)
            ]
            heapq.heapify(heap)
            self._cancelled = 0

    # -- low-level scheduling --------------------------------------------
    def _push(self, time: float, fn: Callable[[], None]) -> None:
        """Schedule an arbitrary callable (the slow, general entry —
        internal hot paths push typed entries directly)."""
        if time < self.now - 1e-15:
            raise ValueError("cannot schedule in the past")
        if self._rec is not None:
            self._rec.bump("engine.scheduled")
        _heappush(self._heap, (time, self._seq, _KIND_CALL, fn, None))
        self._seq += 1

    def _ready(self, proc: Process, value: Any) -> None:
        if self._rec is not None:
            self._rec.bump("engine.scheduled")
        _heappush(self._heap, (self.now, self._seq, _KIND_STEP, proc, value))
        self._seq += 1

    def _schedule_throw(self, proc: Process, exc: BaseException) -> None:
        if self._rec is not None:
            self._rec.bump("engine.scheduled")
        _heappush(self._heap, (self.now, self._seq, _KIND_THROW, proc, exc))
        self._seq += 1

    # -- public API --------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def call_in(self, delay: float, fn: Callable[..., None]) -> None:
        """Schedule a bare callable ``delay`` seconds from now.

        The allocation-free alternative to ``timeout(delay).callbacks
        .append(fn)`` for fire-and-forget work (message delivery): no
        Event is built, and exactly one sequence number is consumed —
        the same as ``timeout`` — so swapping one for the other leaves
        every later event's dispatch order untouched.
        """
        if delay < 0:
            raise ValueError("delay must be non-negative")
        if self._rec is not None:
            self._rec.bump("engine.scheduled")
        _heappush(self._heap, (self.now + delay, self._seq, _KIND_CALL, fn, None))
        self._seq += 1

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that fires ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        ev = Event(self)
        if self._rec is not None:
            self._rec.bump("engine.scheduled")
        _heappush(self._heap, (self.now + delay, self._seq, _KIND_TIMEOUT, ev, value))
        self._seq += 1
        return ev

    def process(self, gen: Generator, name: str = "") -> Process:
        """Start a generator as a simulated process (runs from now)."""
        proc = Process(self, gen, name=name)
        self._active += 1
        proc._completion.callbacks.append(self._finished)
        if self._rec is not None:
            self._rec.bump("engine.scheduled")
        _heappush(self._heap, (self.now, self._seq, _KIND_STEP, proc, None))
        self._seq += 1
        return proc

    def _finished(self, _ev: Event) -> None:
        self._active -= 1

    def all_of(self, events: Iterable[Event | Process]) -> Event:
        """An event that fires when every given event has fired.

        ``all_of([])`` succeeds immediately with ``[]`` — the vacuous
        join (a rank with zero outstanding sends is done waiting).

        If any constituent *fails*, the join fails immediately with the
        same exception — a rank waiting on a batch of sends/receives
        learns of a dead peer at failure time, not at drain time.
        """
        evs = [e.completion if isinstance(e, Process) else e for e in events]
        joined = Event(self)
        for e in evs:
            if e.failed is not None:
                joined.fail(e.failed)
                return joined
        pending = sum(1 for e in evs if not e.triggered)
        if pending == 0:
            joined.succeed([e.value for e in evs])
            return joined
        state = {"pending": pending}

        def on_fire(ev: Event) -> None:
            if joined.triggered:
                return
            if ev.failed is not None:
                joined.fail(ev.failed)
                return
            state["pending"] -= 1
            if state["pending"] == 0:
                joined.succeed([e.value for e in evs])

        for e in evs:
            if not e.triggered:
                e.callbacks.append(on_fire)
        return joined

    def any_of(self, events: Iterable[Event | Process]) -> Event:
        """An event that fires when the FIRST of the given events fires,
        carrying that event's value.  Later firings are ignored.

        ``any_of([])`` raises :class:`ValueError`: there is no first of
        nothing, and the old behaviour — an event that never fires —
        silently deadlocked any waiter (contrast ``all_of([])``, which
        is a well-defined vacuous join and succeeds immediately).

        On first fire the join callback is removed from every *losing*
        event, so long-lived losers (e.g. a 100 s watchdog timeout that
        lost to a fast receive) do not pin the joined event — and
        everything reachable from it — until they eventually fire.
        Removal is O(total callbacks across the losers), paid once.
        """
        evs = [e.completion if isinstance(e, Process) else e for e in events]
        if not evs:
            raise ValueError(
                "any_of([]) can never fire; a waiter would deadlock "
                "(all_of([]) is the vacuous join that succeeds)"
            )
        joined = Event(self)
        for e in evs:
            if e.triggered:
                if e.failed is not None:
                    joined.fail(e.failed)
                else:
                    joined.succeed(e.value)
                return joined

        def on_fire(ev: Event) -> None:
            if not joined.triggered:
                if ev.failed is not None:
                    joined.fail(ev.failed)
                else:
                    joined.succeed(ev.value)
                for other in evs:
                    # The winner's lists were already dropped by its
                    # succeed(); duplicates of a loser are all removed.
                    if other is not ev and not other.triggered:
                        other.remove_callback(on_fire)

        for e in evs:
            e.callbacks.append(on_fire)
        return joined

    def run(self, until: float | None = None) -> float:
        """Execute events until the heap drains (or ``until`` is reached).
        Returns the final simulation time, which is ``until`` when one
        was given and is ahead of the last dispatched event — whether
        the loop stopped at a future event or the heap drained early —
        so ``run(until=t)`` always leaves ``now`` at ``t`` at least.
        """
        if self._rec is not None:
            return self._run_traced(until)
        heap = self._heap
        pop = _heappop
        push = _heappush
        bounded = until is not None
        while heap:
            if bounded and heap[0][0] > until:
                self.now = until
                return until
            time, _seq, kind, obj, arg = pop(heap)
            if kind == _KIND_TIMEOUT:
                if obj.cancelled:
                    # A retired timer: skip silently, without advancing
                    # the clock — a dead watchdog must not stretch the
                    # drain time.
                    self._cancelled -= 1
                    continue
                self.now = time
                # Inlined Event.succeed for the dominant case — a timer
                # firing straight into its (usually single) waiter.
                if obj.triggered:
                    raise RuntimeError("event already triggered")
                obj.triggered = True
                obj.value = arg
                if obj.callbacks:
                    callbacks, obj.callbacks = obj.callbacks, []
                    for cb in callbacks:
                        cb(obj)
                waiters = obj._waiters
                if waiters:
                    obj._waiters = None
                    seq = self._seq
                    for proc in waiters:
                        push(heap, (time, seq, _KIND_STEP, proc, arg))
                        seq += 1
                    self._seq = seq
            elif kind == _KIND_STEP:
                self.now = time
                obj._step(arg)
            elif kind == _KIND_THROW:
                self.now = time
                obj._step(None, arg)
            else:
                self.now = time
                obj()
        if bounded and self.now < until:
            self.now = until
        return self.now

    def run_until(self, event: Event) -> float:
        """Execute events until ``event`` triggers (succeeds or fails)
        or the heap drains.  Unfired heap entries — in-flight transfers,
        a fault daemon's future crash timer — are abandoned, which is
        exactly what a fault-tolerant runner wants: the clock stops when
        the job completes (or dies), not when the last watchdog expires.
        """
        rec = self._rec
        heap = self._heap
        pop = _heappop
        while heap and not event.triggered:
            time, seq, kind, obj, arg = pop(heap)
            if kind == _KIND_TIMEOUT and obj.cancelled:
                self._cancelled -= 1
                continue
            self.now = time
            if rec is not None:
                rec.instant("fire", "engine", time, seq=seq)
            if kind == _KIND_TIMEOUT:
                obj.succeed(arg)
            elif kind == _KIND_STEP:
                obj._step(arg)
            elif kind == _KIND_THROW:
                obj._step(None, arg)
            else:
                obj()
        return self.now

    def _run_traced(self, until: float | None) -> float:
        """The :meth:`run` loop with a fire instant per dispatched event
        — kept separate so the untraced loop stays branch-free."""
        rec = self._rec
        heap = self._heap
        pop = _heappop
        while heap:
            if until is not None and heap[0][0] > until:
                self.now = until
                return until
            time, seq, kind, obj, arg = pop(heap)
            if kind == _KIND_TIMEOUT and obj.cancelled:
                self._cancelled -= 1
                continue
            self.now = time
            rec.instant("fire", "engine", time, seq=seq)
            if kind == _KIND_TIMEOUT:
                obj.succeed(arg)
            elif kind == _KIND_STEP:
                obj._step(arg)
            elif kind == _KIND_THROW:
                obj._step(None, arg)
            else:
                obj()
        if until is not None and self.now < until:
            self.now = until
        return self.now
