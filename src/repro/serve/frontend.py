"""The transport-independent serving core: coalesce, batch, bound.

:class:`CampaignFrontEnd` accepts campaign queries expressed as the
existing work-unit coordinates (``kind`` + ``params`` from
:mod:`repro.parallel.units`) and resolves each one through a strict
funnel, cheapest mechanism first:

1. **single-flight** — an identical request already in flight shares
   its future; one computation serves every concurrent duplicate;
2. **result cache** — the content-addressed on-disk store answers
   anything any previous run (or process) already computed; a bounded
   in-memory LRU (``hot_values``) fronts it, so the hot set skips the
   disk read *and* hands the transport the same value object every
   time (which is what makes the binary wire's encode memo hit);
3. **micro-batch** — the distinct misses that remain are collected for
   ``batch_window_s`` (up to ``max_batch``) and executed with per-unit
   failure isolation, so a bad query fails only itself.  The sweep
   kinds run inline on the event-loop thread, grouped into one
   vectorized ``sweep_points`` call per mode
   (:func:`repro.parallel.units.execute_batch`): a point costs well
   under a millisecond, less than handing it to another thread.  Their
   cache writes go to the executor thread.  The Figure 6 and headline
   simulations — milliseconds to seconds each — go through
   :func:`repro.parallel.runner.run_units` on the one executor thread,
   which shards two or more of them over the worker pool, so the loop
   keeps answering hits while they run and they use every core.

The pool (``jobs`` workers) is forked in :meth:`CampaignFrontEnd.start`
when ``jobs > 1``; it also runs the durable job tier's batches
(:meth:`CampaignFrontEnd.execute_units`).  With ``jobs=1`` the front end
forks nothing and every simulation runs on the executor thread.

Admission control bounds the miss backlog: once ``queue_limit``
distinct computations are pending, further misses are rejected with
:class:`Overloaded` carrying a ``retry_after_s`` hint (the transport
maps this to a 429-style response).  Coalesced and cached requests are
*always* admitted — they cost no worker time, and rejecting them would
punish exactly the traffic the front end is best at.

Graceful shutdown: :meth:`CampaignFrontEnd.drain` stops admitting new
work, waits for every accepted request to resolve, then retires the
batcher — none dropped.  ``drain(timeout_s=...)`` bounds the wait: at
the deadline the remaining unresolved queries are failed with
:class:`Overloaded` (``reason="draining"``, with a retry hint) instead
of holding shutdown hostage to a slow batch — the durable job tier
(:mod:`repro.serve.jobs`) is where long work survives a restart, not
an unbounded drain.

Observability: when :mod:`repro.obs` is recording, batches emit
``serve.batch`` spans (wall-clock seconds since front-end start — a
live service has no simulated clock, so these traces are *not* part of
the deterministic-replay contract), queue depth lands on the
``serve.queue_depth`` counter, and the ``serve.hit`` /
``serve.coalesced`` / ``serve.computed`` / ``serve.rejected`` totals
mirror :class:`ServeStats`.
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
import time
import traceback
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.obs.recorder import current as _obs_current
from repro.parallel import runner as _runner
from repro.parallel.cache import DEFAULT_CACHE_DIR, MISS, ResultCache, unit_key
from repro.parallel.units import UnitFailure, WorkUnit, execute_batch

#: The queryable work-unit kinds (the campaign decomposition's own).
UNIT_KINDS = ("sweep_base", "sweep_point", "fig6_point", "headline")

#: Kinds a query batch computes inline on the event-loop thread; the
#: rest (discrete-event simulations) go to the executor thread and pool.
INLINE_KINDS = frozenset(("sweep_base", "sweep_point"))

#: How a request was served.
SERVED_CACHE = "cache"
SERVED_COALESCED = "coalesced"
SERVED_COMPUTED = "computed"
SERVED_PEER = "peer"  # filled from the key's home shard's cache


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sequence is undefined")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


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

    jobs: int = 2                  #: pool workers (1 = no pool, in process)
    batch_window_s: float = 0.01   #: micro-batch collection window
    max_batch: int = 32            #: distinct misses per batch
    queue_limit: int = 256        #: pending distinct computations bound
    cache_dir: Path | None = DEFAULT_CACHE_DIR  #: None = no cache
    cache_max_bytes: int | None = None  #: None = ResultCache default
    seed: int = 0                  #: study seed baked into cache keys
    #: In-memory LRU fronting the disk cache (entries; 0 disables).
    #: Sound because cached values are immutable per (kind, params,
    #: seed) — the memory front can never go stale.
    hot_values: int = 4096

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.hot_values < 0:
            raise ValueError("hot_values must be non-negative")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        if self.batch_window_s < 0:
            raise ValueError("batch_window_s must be non-negative")


@dataclass
class ServeStats:
    """Request accounting for one front end's lifetime."""

    accepted: int = 0      #: requests admitted (every served request)
    rejected: int = 0      #: requests refused by admission control
    cache_hits: int = 0    #: served straight from the result cache
    hot_hits: int = 0      #: cache_hits answered by the in-memory LRU
    coalesced: int = 0     #: shared an identical in-flight computation
    peer_fills: int = 0    #: filled from the key's home shard's cache
    peer_serves: int = 0   #: probe hits answered TO peers (home-shard side)
    computed: int = 0      #: required fresh work-unit execution
    failed: int = 0        #: admitted but failed in execution
    direct: int = 0        #: queries tagged via="direct" by a ring client
    batches: int = 0       #: run_units calls issued
    batched_units: int = 0  #: distinct units across all batches
    latencies_s: list[float] = field(default_factory=list)

    @property
    def hit_ratio(self) -> float:
        """Fraction of admitted requests served without fresh work —
        the coalesce+cache(+peer) ratio the acceptance gate reads."""
        if not self.accepted:
            return 0.0
        return (
            self.cache_hits + self.coalesced + self.peer_fills
        ) / self.accepted

    @property
    def mean_batch_size(self) -> float:
        return self.batched_units / self.batches if self.batches else 0.0

    def record_latency(self, seconds: float) -> None:
        # Bounded: a long-lived server must not grow without limit.
        if len(self.latencies_s) < 1_000_000:
            self.latencies_s.append(seconds)

    def snapshot(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "accepted": self.accepted,
            "rejected": self.rejected,
            "cache_hits": self.cache_hits,
            "hot_hits": self.hot_hits,
            "coalesced": self.coalesced,
            "peer_fills": self.peer_fills,
            "peer_serves": self.peer_serves,
            "computed": self.computed,
            "failed": self.failed,
            "direct": self.direct,
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "hit_ratio": self.hit_ratio,
        }
        if self.latencies_s:
            doc["p50_latency_s"] = percentile(self.latencies_s, 0.50)
            doc["p99_latency_s"] = percentile(self.latencies_s, 0.99)
        return doc


@dataclass
class _Pending:
    """One distinct in-flight computation."""

    key: tuple[str, str]
    unit: WorkUnit
    future: asyncio.Future


def _report_write_failure(future) -> None:
    """Done-callback of a write-through nobody awaits: a failed write
    costs a recomputation later, never an answer, but it is reported."""
    exc = future.exception()
    if exc is not None:
        print("repro serve: cache write-through failed:", file=sys.stderr)
        traceback.print_exception(type(exc), exc, exc.__traceback__)


class CampaignFrontEnd:
    """See the module docstring.  Lifecycle::

        fe = CampaignFrontEnd(ServeConfig(jobs=4))
        await fe.start()
        value, served = await fe.submit("sweep_point", {...})
        ...
        await fe.drain()   # graceful: resolves everything accepted

    ``runner`` (tests, benchmarks) replaces the default execution with
    any callable ``list[WorkUnit] -> list[value]``; it runs on the
    executor thread for every kind.
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
        cache_kw: dict[str, Any] = {}
        if cfg.cache_max_bytes is not None:
            cache_kw["max_bytes"] = cfg.cache_max_bytes
        # Two cache handles on the same directory: the probe cache is
        # touched only from the event-loop thread, the batch cache only
        # from the single executor thread — no shared mutable state, and
        # every write (with its size scan and eviction) off the loop.
        self._probe_cache = (
            ResultCache(cfg.cache_dir, **cache_kw)
            if cfg.cache_dir is not None else None
        )
        self._batch_cache = (
            ResultCache(cfg.cache_dir, **cache_kw)
            if cfg.cache_dir is not None else None
        )
        self._hot_values: OrderedDict[tuple[str, str], Any] | None = (
            OrderedDict()
            if cfg.cache_dir is not None and cfg.hot_values > 0 else None
        )
        self._pool = None  # persistent worker pool; created in start()
        #: Optional cluster hook (duck-typed; see repro.serve.router's
        #: CachePeerFill): ``await peer_fill.probe(kind, params)``
        #: returns a cached value from the key's home shard or MISS.
        #: Strictly an optimisation — any failure must surface as MISS.
        self.peer_fill = None
        self._inflight: dict[tuple[str, str], _Pending] = {}
        self._queue: asyncio.Queue[_Pending] = asyncio.Queue()
        self._pending_units = 0  # queued + executing distinct units
        self._draining = False
        self._batcher_task: asyncio.Task | None = None
        # One executor thread: simulation batches, job batches and
        # cache writes run strictly one at a time — the bounded worker
        # pool is the multiprocessing pool *inside* each run_units call,
        # not a fan-out of concurrent batches.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-batch"
        )
        self._t0 = time.perf_counter()
        # Wall throughput of recent batches, for the retry-after hint.
        self._last_batch_rate: float = 0.0

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        if self._runner is None and self.config.jobs > 1 and self._pool is None:
            # Pre-fork the worker pool NOW, while the process is still
            # single-threaded.  Batches execute from an executor thread,
            # and forking a pool from there can hand workers a lock the
            # event-loop thread held at fork time — a worker deadlocked
            # before its first task, and a batch that never returns.
            self._pool = _runner._pool_context().Pool(self.config.jobs)
        if self._batcher_task is None:
            self._batcher_task = asyncio.get_running_loop().create_task(
                self._batcher()
            )

    async def drain(self, timeout_s: float | None = None) -> bool:
        """Graceful shutdown: admit nothing new, resolve everything
        accepted (none dropped), then retire the batcher thread.

        ``timeout_s`` bounds the wait.  At the deadline every still-
        unresolved query future is failed with :class:`Overloaded`
        (``reason="draining"`` plus a retry hint) and worker teardown
        switches to non-blocking — the returned ``False`` tells the
        caller the drain was cut short.  Pre-fix, a single wedged batch
        blocked shutdown indefinitely.
        """
        self._draining = True
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        drained = True
        while self._inflight:
            futures = [p.future for p in self._inflight.values()]
            if deadline is None:
                await asyncio.gather(*futures, return_exceptions=True)
                continue
            remaining = deadline - time.monotonic()
            if remaining > 0:
                done, pending = await asyncio.wait(
                    futures, timeout=remaining
                )
            else:
                pending = [f for f in futures if not f.done()]
            if pending:
                self._abort_pending()
                drained = False
                break
        if self._batcher_task is not None:
            self._batcher_task.cancel()
            try:
                await self._batcher_task
            except asyncio.CancelledError:
                pass
            self._batcher_task = None
        self._executor.shutdown(wait=drained)
        if self._pool is not None:
            if drained:
                self._pool.close()
            else:
                # A batch may still be wedged inside the pool; close()
                # would wait on it via join below.
                self._pool.terminate()
            self._pool.join()
            self._pool = None
        return drained

    def _abort_pending(self) -> None:
        """Timed-out drain: fail every unresolved query future with a
        retryable :class:`Overloaded` so waiters are released *now*.
        Entries still queued (never dispatched) also release their
        pending-unit slots; the executing batch's ``finally`` block
        releases its own when the worker eventually returns."""
        exc = Overloaded(self._retry_after(), reason="draining")
        while True:
            try:
                entry = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            self._inflight.pop(entry.key, None)
            self._pending_units -= 1
            if not entry.future.done():
                entry.future.set_exception(exc)
        for entry in list(self._inflight.values()):
            # Executing right now: release the waiter, keep the
            # bookkeeping for the batch's own cleanup path.
            if not entry.future.done():
                entry.future.set_exception(exc)
            self._inflight.pop(entry.key, None)

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def queue_depth(self) -> int:
        """Distinct computations pending (queued or executing)."""
        return self._pending_units

    def _clock(self) -> float:
        return time.perf_counter() - self._t0

    # -- the funnel --------------------------------------------------------
    async def submit(self, kind: str, params: dict[str, Any]) -> tuple[Any, str]:
        """Resolve one campaign query; returns ``(value, served_by)``.

        Raises :class:`Overloaded` when admission control refuses the
        request and ``ValueError`` for an unknown unit kind.
        """
        if kind not in UNIT_KINDS:
            raise ValueError(
                f"unknown work-unit kind {kind!r} "
                f"(one of: {', '.join(UNIT_KINDS)})"
            )
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
                value = await asyncio.shield(pending.future)
            except Exception:
                self.stats.failed += 1
                raise
            self.stats.record_latency(time.perf_counter() - t_in)
            return value, SERVED_COALESCED

        hot = self._hot_values
        if hot is not None:
            value = hot.get(key, MISS)
            if value is not MISS:
                hot.move_to_end(key)
                self.stats.accepted += 1
                self.stats.cache_hits += 1
                self.stats.hot_hits += 1
                if rec is not None:
                    rec.bump("serve.hit")
                self.stats.record_latency(time.perf_counter() - t_in)
                return value, SERVED_CACHE

        if self._probe_cache is not None:
            hit = self._probe_cache.get(unit_key(kind, params, self.config.seed))
            if hit is not MISS:
                self._remember(key, hit)
                self.stats.accepted += 1
                self.stats.cache_hits += 1
                if rec is not None:
                    rec.bump("serve.hit")
                self.stats.record_latency(time.perf_counter() - t_in)
                return hit, SERVED_CACHE

        if self.peer_fill is not None and self._probe_cache is not None:
            # Cluster peer-fill: before paying for a computation, ask
            # the key's home shard whether it already holds the value.
            # A hit is written through to the local cache (so the next
            # request is a plain local hit) and served without worker
            # time — which is also why it skips admission control, like
            # the cache path above.
            value = await self.peer_fill.probe(kind, params)
            if value is not MISS:
                self._probe_cache.put(
                    unit_key(kind, params, self.config.seed), value, kind=kind
                )
                self._remember(key, value)
                self.stats.accepted += 1
                self.stats.peer_fills += 1
                if rec is not None:
                    rec.bump("serve.peer_fill")
                self.stats.record_latency(time.perf_counter() - t_in)
                return value, SERVED_PEER

        # A genuine miss needs worker time: admission control applies.
        if self._draining:
            self.stats.rejected += 1
            if rec is not None:
                rec.bump("serve.rejected")
            raise Overloaded(self._retry_after(), reason="draining")
        if self._pending_units >= self.config.queue_limit:
            self.stats.rejected += 1
            if rec is not None:
                rec.bump("serve.rejected")
            raise Overloaded(self._retry_after())

        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        # Always consume the exception: a waiter that disconnects must
        # not leave an "exception was never retrieved" warning behind.
        fut.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        entry = _Pending(key, WorkUnit(kind, dict(params)), fut)
        self._inflight[key] = entry
        self._pending_units += 1
        self._queue.put_nowait(entry)
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

    def cache_peek(self, kind: str, params: dict[str, Any]) -> Any:
        """Local-cache-only read for the cluster ``probe`` op: the
        cached value or :data:`MISS`.  Never computes, never coalesces,
        never consults ``peer_fill`` — the home shard answering a
        peer's probe with another probe would recurse across the ring.
        """
        if kind not in UNIT_KINDS:
            raise ValueError(
                f"unknown work-unit kind {kind!r} "
                f"(one of: {', '.join(UNIT_KINDS)})"
            )
        if self._probe_cache is None:
            return MISS
        value = self._probe_cache.get(unit_key(kind, params, self.config.seed))
        if value is not MISS:
            self.stats.peer_serves += 1
            rec = _obs_current()
            if rec is not None:
                rec.bump("serve.peer_serve")
        return value

    def _retry_after(self) -> float:
        """A drain-time estimate for the 429 hint: the current backlog
        over the recently observed batch throughput, floored at one
        batch window.

        Before any batch has completed there is no observed throughput;
        pre-fix the hint degenerated to the bare floor no matter how
        deep the backlog was, telling a client to hammer a cold server
        that provably could not have drained yet.  The fallback assumes
        one ``batch_window_s`` per ``max_batch``-sized batch, so the
        hint still scales with the backlog.
        """
        floor = max(self.config.batch_window_s, 0.01)
        if self._last_batch_rate <= 0:
            batches = math.ceil(
                max(self._pending_units, 1) / self.config.max_batch
            )
            return batches * floor
        return max(floor, self._pending_units / self._last_batch_rate)

    # -- batching ----------------------------------------------------------
    async def _batcher(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._queue.get()]
            deadline = loop.time() + self.config.batch_window_s
            while len(batch) < self.config.max_batch:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    batch.append(
                        await asyncio.wait_for(self._queue.get(), remaining)
                    )
                except asyncio.TimeoutError:
                    break
            await self._execute(batch)

    async def _execute(self, batch: list[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        rec = _obs_current()
        t0 = self._clock()
        if rec is not None:
            rec.counter("serve.queue_depth", t0, self._pending_units)
        if self._runner is None:
            inline = [e for e in batch if e.unit.kind in INLINE_KINDS]
            offload = [e for e in batch if e.unit.kind not in INLINE_KINDS]
        else:
            inline, offload = [], batch
        try:
            # The simulations start first, so the executor thread works
            # through them while this thread computes the sweep points.
            pending = loop.run_in_executor(
                self._executor, self._run_batch, [e.unit for e in offload]
            ) if offload else None
            if inline:
                # The funnel has just probed these keys: compute them
                # without a second cache read.
                units = [e.unit for e in inline]
                values = [None] * len(units)
                try:
                    for i, value in execute_batch(
                        units, self.config.seed, safe=True
                    ):
                        values[i] = value
                except Exception as exc:
                    values = exc
                self._resolve(inline, values)
                if not isinstance(values, Exception):
                    # Written behind the answers, on the executor thread:
                    # a put can scan or evict the whole store.
                    self._executor.submit(
                        self._write_through, units, values, self.config.seed
                    ).add_done_callback(_report_write_failure)
            if pending is not None:
                try:
                    values = await pending
                except Exception as exc:
                    values = exc
                self._resolve(offload, values)
        finally:
            self._pending_units -= len(batch)
            t1 = self._clock()
            self.stats.batches += 1
            self.stats.batched_units += len(batch)
            if t1 > t0:
                self._last_batch_rate = len(batch) / (t1 - t0)
            if rec is not None:
                rec.span("serve.batch", "serve", t0, t1, batch=len(batch))
                rec.bump("serve.batches")

    def _resolve(
        self, entries: list[_Pending], values: list[Any] | Exception
    ) -> None:
        """Settle each entry's future with its own value or failure;
        ``values`` as an exception fails them all."""
        if not isinstance(values, Exception) and len(values) != len(entries):
            values = RuntimeError(
                f"runner returned {len(values)} values for "
                f"{len(entries)} units"
            )
        for i, entry in enumerate(entries):
            self._inflight.pop(entry.key, None)
            if entry.future.done():
                continue
            value = values if isinstance(values, Exception) else values[i]
            if isinstance(value, UnitFailure):
                value = value.exc or RuntimeError(value.error)
            if isinstance(value, Exception):
                entry.future.set_exception(value)
            else:
                entry.future.set_result(value)

    def _run_batch(self, units: list[WorkUnit]) -> list[Any]:
        """Executor-thread entry for a query batch: the injected runner,
        or ``run_units`` over the pool.  Either way results are written
        through to the cache — the hit-path contract must not depend on
        which runner computed the value."""
        if self._runner is None:
            return _runner.run_units(
                units, cache=self._batch_cache, seed=self.config.seed,
                pool=self._pool, safe=True,
            )
        values = self._runner(units)
        self._write_through(units, values, self.config.seed)
        return values

    def _write_through(
        self, units: list[WorkUnit], values: list[Any], seed: int
    ) -> None:
        """Executor thread only: store each computed value (failures
        are never cached)."""
        if self._batch_cache is None:
            return
        for unit, value in zip(units, values):
            if not isinstance(value, UnitFailure):
                self._batch_cache.put(
                    unit_key(unit.kind, unit.params, seed), value,
                    kind=unit.kind,
                )

    # -- job-tier execution ------------------------------------------------
    async def execute_units(
        self, units: list[WorkUnit], seed: int | None = None
    ) -> list[Any]:
        """Run a job-tier unit batch on the serve executor thread.

        Job batches and the query path's simulation batches share the
        ONE executor thread (and its pre-forked pool), so they serialise
        instead of fighting over workers, and the fork-safety invariant
        from :meth:`start` keeps holding.  Failures come back as
        :class:`~repro.parallel.runner.UnitFailure` slots (``safe``
        execution) — the job tier retries or quarantines per unit;
        completed values are written through to the cache, which is
        exactly what makes unit completion a restart checkpoint.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, self._run_job_units, units,
            self.config.seed if seed is None else seed,
        )

    def _run_job_units(self, units: list[WorkUnit], seed: int) -> list[Any]:
        if self._runner is not None:
            try:
                values = self._runner(units)
            except Exception as exc:  # noqa: BLE001 - containment
                return [
                    UnitFailure(f"{type(exc).__name__}: {exc}")
                    for _ in units
                ]
            self._write_through(units, values, seed)
            return values
        return _runner.run_units(
            units, cache=self._batch_cache, seed=seed, pool=self._pool,
            safe=True,
        )
