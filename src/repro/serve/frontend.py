"""The transport-independent serving core: coalesce, compute, bound.

:class:`CampaignFrontEnd` accepts campaign queries expressed as the
existing work-unit coordinates (``kind`` + ``params`` from
:mod:`repro.parallel.units`) and resolves each one through a strict
funnel, cheapest mechanism first:

1. **single-flight** — an identical request already in flight shares
   its future; one computation serves every concurrent duplicate;
2. **result cache** — a bounded in-memory LRU (``hot_values``) answers
   every key this front end has computed or read, handing the
   transport the same value object every time (which is what makes the
   binary wire's encode memo hit).  It is looked up first, by the
   synchronous :meth:`CampaignFrontEnd.submit_nowait`, which the
   transport calls on its read path.  Behind it, the content-addressed
   on-disk store answers the simulation kinds (``fig6_point``,
   ``headline``) that any previous run or process computed.  The sweep
   kinds (:data:`INLINE_KINDS`) never touch the disk on this path: a
   point is cheap to recompute, its repeats are LRU hits, and the
   writes cost more than they saved (DESIGN.md section 11);
3. **compute** — ``submit_nowait`` computes a sweep-kind miss itself,
   on the read path, through :func:`repro.parallel.units.execute_unit`
   (so the ``REPRO_SCALAR_SWEEP=1`` oracle holds): a point costs less
   than a task and a future around it (DESIGN.md section 11).  Each
   distinct simulation miss (Figure 6 and headline units, milliseconds
   to seconds each), and every kind under an injected ``runner``, is
   one ``run_in_executor`` call on the one executor thread, which runs
   it with failure isolation through
   :func:`repro.parallel.runner.run_units` and writes its value through
   to the disk store; the loop keeps answering meanwhile, under the
   short GIL switch interval ``repro serve`` sets.

The durable job tier's batches (:meth:`CampaignFrontEnd.execute_units`)
queue on the same executor thread, first in first out with the
simulation units; the job manager writes each completed unit to the
cache once, as its restart checkpoint.

Admission control bounds the simulation-miss backlog: once
``queue_limit`` distinct computations are pending, further misses are
rejected with :class:`Overloaded` carrying a ``retry_after_s`` hint
(the backlog times the last observed per-unit compute time; the
transport maps this to a 429-style response).  Coalesced and cached
requests are *always* admitted — they cost no worker time, and
rejecting them would punish exactly the traffic the front end is best
at.  A sweep miss holds no queue slot; a burst of them is bounded by
the transport (TCP back-pressure, and a yield between computed answers
while more input is buffered).

Graceful shutdown: :meth:`CampaignFrontEnd.drain` stops admitting new
work, waits for every accepted request to resolve, then retires the
executor thread — none dropped.  ``drain(timeout_s=...)`` bounds the
wait: at the deadline the remaining unresolved queries are failed with
:class:`Overloaded` (``reason="draining"``, with a retry hint) and
units not yet started are cancelled, instead of holding shutdown
hostage to a slow unit — the durable job tier (:mod:`repro.serve.jobs`)
is where long work survives a restart, not an unbounded drain.

Observability: when :mod:`repro.obs` is recording, each unit run on the
executor thread emits a ``serve.compute`` span (wall-clock seconds
since front-end start — a live service has no simulated clock, so these
traces are *not* part of the deterministic-replay contract), queue
depth lands on the ``serve.queue_depth`` counter, and the
``serve.hit`` / ``serve.coalesced`` / ``serve.computed`` /
``serve.rejected`` / ``serve.offloaded`` totals mirror
:class:`ServeStats`.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.obs.recorder import current as _obs_current
from repro.parallel import runner as _runner
from repro.parallel import units as _units
from repro.parallel.cache import DEFAULT_CACHE_DIR, MISS, ResultCache, unit_key
from repro.parallel.units import UnitFailure, WorkUnit
from repro.serve.wire import UNIT_KINDS

#: Kinds a query miss computes on the caller's thread (the transport's
#: read path) and keeps in memory only; the rest (simulations) go
#: through the executor thread and the disk store.
INLINE_KINDS = frozenset(("sweep_base", "sweep_point"))

#: How a request was served.
SERVED_CACHE = "cache"
SERVED_COALESCED = "coalesced"
SERVED_COMPUTED = "computed"

#: Latency samples :class:`ServeStats` keeps: the most recent ones, so
#: a long-lived server's p50/p99 describe its recent traffic.
LATENCY_WINDOW = 1_000_000

#: Per-unit compute time the retry-after hint assumes until the first
#: unit has finished on the executor thread.
ASSUMED_UNIT_S = 0.01


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of ``values``."""
    return percentiles(values, (q,))[0]


def percentiles(values: list[float], qs: tuple[float, ...]) -> list[float]:
    """Nearest-rank percentiles of ``values`` for ``qs``, one sort."""
    if not values:
        raise ValueError("percentile of an empty sequence is undefined")
    if not all(0.0 <= q <= 1.0 for q in qs):
        raise ValueError("q must be in [0, 1]")
    ordered = sorted(values)
    return [ordered[max(1, math.ceil(q * len(ordered))) - 1] for q in qs]


class Overloaded(RuntimeError):
    """Admission control rejected the request (429-style).

    ``retry_after_s`` estimates when the backlog will have drained
    enough to admit a retry; ``reason`` is ``"overloaded"`` for a full
    queue and ``"draining"`` during graceful shutdown.
    """

    def __init__(self, retry_after_s: float, reason: str = "overloaded") -> None:
        super().__init__(
            f"{reason}: retry after {retry_after_s:.3f} s"
        )
        self.retry_after_s = retry_after_s
        self.reason = reason


@dataclass
class ServeConfig:
    """Tunables for one front end."""

    queue_limit: int = 256        #: pending distinct computations bound
    cache_dir: Path | None = DEFAULT_CACHE_DIR  #: None = no cache
    seed: int = 0                  #: study seed baked into cache keys
    #: In-memory LRU fronting the disk cache (entries; 0 disables).
    #: Sound because cached values are immutable per (kind, params,
    #: seed) — the memory front can never go stale.
    hot_values: int = 4096

    def __post_init__(self) -> None:
        if self.hot_values < 0:
            raise ValueError("hot_values must be non-negative")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")


@dataclass
class ServeStats:
    """Request accounting for one front end's lifetime."""

    accepted: int = 0      #: requests admitted (every served request)
    rejected: int = 0      #: requests refused by admission control
    cache_hits: int = 0    #: served straight from the result cache
    hot_hits: int = 0      #: cache_hits answered by the in-memory LRU
    coalesced: int = 0     #: shared an identical in-flight computation
    computed: int = 0      #: required fresh work-unit execution
    failed: int = 0        #: admitted but failed in execution
    direct: int = 0        #: queries tagged via="direct" by a ring client
    offloaded: int = 0     #: query units run on the executor thread
    latencies_s: deque[float] = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW)
    )

    @property
    def hit_ratio(self) -> float:
        """Fraction of admitted requests served without fresh work —
        the coalesce+cache ratio the acceptance gate reads."""
        if not self.accepted:
            return 0.0
        return (self.cache_hits + self.coalesced) / self.accepted

    def record_latency(self, seconds: float) -> None:
        # Bounded: past the window the oldest sample drops out.
        self.latencies_s.append(seconds)

    def snapshot(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "accepted": self.accepted,
            "rejected": self.rejected,
            "cache_hits": self.cache_hits,
            "hot_hits": self.hot_hits,
            "coalesced": self.coalesced,
            "computed": self.computed,
            "failed": self.failed,
            "direct": self.direct,
            "offloaded": self.offloaded,
            "hit_ratio": self.hit_ratio,
        }
        if self.latencies_s:
            doc["p50_latency_s"], doc["p99_latency_s"] = percentiles(
                self.latencies_s, (0.50, 0.99)
            )
        return doc


class CampaignFrontEnd:
    """See the module docstring.  Lifecycle::

        fe = CampaignFrontEnd(ServeConfig())
        value, served = await fe.submit("sweep_point", {...})
        ...
        await fe.drain()   # graceful: resolves everything accepted

    ``runner`` (tests, benchmarks) replaces the default execution with
    any callable ``list[WorkUnit] -> list[value]``; it runs on the
    executor thread for every kind, called with one unit per distinct
    miss.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        runner: Callable[[list[WorkUnit]], list[Any]] | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.stats = ServeStats()
        self._runner = runner
        cfg = self.config
        # Two cache handles on the same directory: the probe cache is
        # touched only from the event-loop thread, the batch cache only
        # from the single executor thread — no shared mutable state, and
        # every write (with its size scan and eviction) off the loop.
        self._probe_cache = (
            ResultCache(cfg.cache_dir)
            if cfg.cache_dir is not None else None
        )
        self._batch_cache = (
            ResultCache(cfg.cache_dir)
            if cfg.cache_dir is not None else None
        )
        self._hot_values: OrderedDict[tuple[str, str], Any] | None = (
            OrderedDict()
            if cfg.cache_dir is not None and cfg.hot_values > 0 else None
        )
        # One future per distinct computation queued or executing.
        self._inflight: dict[tuple[str, str], asyncio.Future] = {}
        self._draining = False
        # One executor thread: simulation units and job batches, with
        # their cache writes, run strictly one at a time.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-batch"
        )
        self._t0 = time.perf_counter()
        # Compute time of the last unit finished, for the retry hint.
        self._unit_s = 0.0

    # -- lifecycle ---------------------------------------------------------
    async def drain(self, timeout_s: float | None = None) -> bool:
        """Graceful shutdown: admit nothing new, resolve everything
        accepted (none dropped), then retire the executor thread.

        ``timeout_s`` bounds the wait.  At the deadline every still-
        unresolved query future is failed with :class:`Overloaded`
        (``reason="draining"`` plus a retry hint) and the executor is
        shut down without waiting, cancelling the units it has not
        started — the returned ``False`` tells the caller the drain was
        cut short.
        """
        self._draining = True
        pending: set[asyncio.Future] = set()
        if self._inflight:
            # Draining admits no new computation: this set only shrinks.
            _, pending = await asyncio.wait(
                self._inflight.values(), timeout=timeout_s
            )
        if pending:
            exc = Overloaded(self._retry_after(), reason="draining")
            for fut in self._inflight.values():
                fut.set_exception(exc)
            self._inflight.clear()
        self._executor.shutdown(
            wait=not pending, cancel_futures=bool(pending)
        )
        return not pending

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def queue_depth(self) -> int:
        """Distinct computations pending (queued or executing)."""
        return len(self._inflight)

    def _clock(self) -> float:
        return time.perf_counter() - self._t0

    # -- the funnel --------------------------------------------------------
    def _check_kind(self, kind: str) -> None:
        if kind not in UNIT_KINDS:
            raise ValueError(
                f"unknown work-unit kind {kind!r} "
                f"(one of: {', '.join(UNIT_KINDS)})"
            )

    def submit_nowait(
        self, kind: str, params: dict[str, Any]
    ) -> tuple[Any, str] | None:
        """The synchronous half of :meth:`submit`, which the transport
        calls on its read path: a hot-LRU hit, counted and returned as
        ``(value, "cache")``; a sweep-kind miss, computed here as
        ``(value, "computed")``; or ``None`` for the rest of the funnel
        (simulation kinds, an injected runner, a draining front end).

        Raises ``ValueError`` for an unknown kind or malformed params,
        and a computed unit's own exception when it fails otherwise.
        """
        self._check_kind(kind)
        hot = self._hot_values
        t_in = time.perf_counter()
        key = (kind, json.dumps(params, sort_keys=True))
        if hot is not None:
            value = hot.get(key, MISS)
            if value is not MISS:
                hot.move_to_end(key)
                self.stats.accepted += 1
                self.stats.cache_hits += 1
                self.stats.hot_hits += 1
                rec = _obs_current()
                if rec is not None:
                    rec.bump("serve.hit")
                self.stats.record_latency(time.perf_counter() - t_in)
                return value, SERVED_CACHE
        if kind not in INLINE_KINDS or self._runner is not None or self._draining:
            return None
        # A sweep miss costs less to compute than to hand to a thread:
        # memory only, the hot LRU keeps what it resolves to.
        self.stats.accepted += 1
        try:
            value = _units.execute_unit(kind, params, self.config.seed)
        except Exception:
            self.stats.failed += 1
            raise
        self._remember(key, value)
        self.stats.computed += 1
        rec = _obs_current()
        if rec is not None:
            rec.bump("serve.computed")
        self.stats.record_latency(time.perf_counter() - t_in)
        return value, SERVED_COMPUTED

    async def submit(self, kind: str, params: dict[str, Any]) -> tuple[Any, str]:
        """Resolve one campaign query; returns ``(value, served_by)``.

        Raises :class:`Overloaded` when admission control refuses the
        request and ``ValueError`` for an unknown unit kind.
        """
        hit = self.submit_nowait(kind, params)
        if hit is not None:
            return hit
        t_in = time.perf_counter()
        key = (kind, json.dumps(params, sort_keys=True))
        rec = _obs_current()

        pending = self._inflight.get(key)
        if pending is not None:
            # Single-flight: ride the computation already in the air.
            self.stats.accepted += 1
            self.stats.coalesced += 1
            if rec is not None:
                rec.bump("serve.coalesced")
            try:
                value = await asyncio.shield(pending)
            except Exception:
                self.stats.failed += 1
                raise
            self.stats.record_latency(time.perf_counter() - t_in)
            return value, SERVED_COALESCED

        if self._probe_cache is not None and kind not in INLINE_KINDS:
            hit = self._probe_cache.get(unit_key(kind, params, self.config.seed))
            if hit is not MISS:
                self._remember(key, hit)
                self.stats.accepted += 1
                self.stats.cache_hits += 1
                if rec is not None:
                    rec.bump("serve.hit")
                self.stats.record_latency(time.perf_counter() - t_in)
                return hit, SERVED_CACHE

        # A genuine miss needs worker time: admission control applies.
        if self._draining:
            self.stats.rejected += 1
            if rec is not None:
                rec.bump("serve.rejected")
            raise Overloaded(self._retry_after(), reason="draining")
        if len(self._inflight) >= self.config.queue_limit:
            self.stats.rejected += 1
            if rec is not None:
                rec.bump("serve.rejected")
            raise Overloaded(self._retry_after())

        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        # Always consume the exception: a waiter that disconnects must
        # not leave an "exception was never retrieved" warning behind.
        fut.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        self._inflight[key] = fut
        loop.run_in_executor(
            self._executor, self._compute, WorkUnit(kind, dict(params))
        ).add_done_callback(functools.partial(self._settle, key, fut))
        if rec is not None:
            rec.counter("serve.queue_depth", self._clock(), len(self._inflight))
        self.stats.accepted += 1
        try:
            value = await asyncio.shield(fut)
        except Exception:
            self.stats.failed += 1
            raise
        self._remember(key, value)
        self.stats.computed += 1
        if rec is not None:
            rec.bump("serve.computed")
        self.stats.record_latency(time.perf_counter() - t_in)
        return value, SERVED_COMPUTED

    def _remember(self, key: tuple[str, str], value: Any) -> None:
        """Front ``value`` in the hot-value LRU (no-op when disabled).

        The stored object is returned as-is on later hits, so the
        transport sees one stable object identity per hot key — the
        property the wire-level encode memo keys on.
        """
        hot = self._hot_values
        if hot is None:
            return
        hot[key] = value
        hot.move_to_end(key)
        if len(hot) > self.config.hot_values:
            hot.popitem(last=False)

    def _retry_after(self) -> float:
        """A drain-time estimate for the 429 hint: the backlog of
        distinct computations times the last unit's compute time
        (:data:`ASSUMED_UNIT_S` before any unit has finished)."""
        return max(len(self._inflight), 1) * (self._unit_s or ASSUMED_UNIT_S)

    # -- the executor thread -----------------------------------------------
    def _compute(self, unit: WorkUnit) -> tuple[Any, float, float]:
        """Executor-thread entry for one query unit: its value, or the
        exception that failed it, with the clock around the run."""
        t0 = self._clock()
        try:
            [value] = self._run_batch([unit], self.config.seed, True)
        except Exception as exc:  # noqa: BLE001 - settled on its waiter
            value = exc
        return value, t0, self._clock()

    def _settle(
        self, key: tuple[str, str], fut: asyncio.Future, work: asyncio.Future
    ) -> None:
        """Loop-thread callback when ``key``'s unit is done: settle its
        future with the unit's own value or failure."""
        self._inflight.pop(key, None)
        if work.cancelled():  # a timed-out drain: never started
            return
        value, t0, t1 = work.result()
        self._unit_s = t1 - t0
        self.stats.offloaded += 1
        rec = _obs_current()
        if rec is not None:
            rec.span("serve.compute", "serve", t0, t1, kind=key[0])
            rec.bump("serve.offloaded")
        if fut.done():  # already failed by a timed-out drain
            return
        if isinstance(value, UnitFailure):
            value = value.exc or RuntimeError(value.error)
        if isinstance(value, Exception):
            fut.set_exception(value)
        else:
            fut.set_result(value)

    def _run_batch(
        self, units: list[WorkUnit], seed: int, write: bool
    ) -> list[Any]:
        """Executor-thread entry for query units and job batches alike:
        the injected runner, or ``run_units`` in this process.  A query
        unit (``write``) writes its value through to the cache; a job
        batch writes none, as the job manager owns its checkpoints.
        Unit failures come back as :class:`UnitFailure` slots; a runner
        that raises fails its query unit, or each unit of a job batch.
        """
        cache = self._batch_cache
        if self._runner is None:
            return _runner.run_units(
                units, cache=cache, seed=seed, safe=True, write=write
            )
        values = self._runner(units)
        if write and cache is not None:
            for unit, value in zip(units, values):
                if not isinstance(value, UnitFailure):  # never cached
                    cache.put(
                        unit_key(unit.kind, unit.params, seed), value,
                        kind=unit.kind,
                    )
        return values

    # -- job-tier execution ------------------------------------------------
    async def execute_units(
        self, units: list[WorkUnit], seed: int | None = None
    ) -> list[Any]:
        """Run a job-tier unit batch on the serve executor thread, in
        turn with the query path's simulation units, one
        ``execute_unit`` call per unit as in the campaign.  Failures
        come back as :class:`~repro.parallel.runner.UnitFailure` slots
        (an injected runner's exception propagates; the job tier fails
        each unit with it).  Units already cached are not recomputed,
        and nothing is written: the job manager writes each checkpoint.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, self._run_batch, units,
            self.config.seed if seed is None else seed, False,
        )
