"""The serving front end: coalescing, caching, batching, admission,
drain.  Every test injects a fake runner — the execution path under the
batcher is :func:`run_units`, covered by the campaign tests; here the
contract under test is the funnel itself."""

import asyncio
import threading

import pytest

from repro.obs import recorder
from repro.serve.frontend import (
    CampaignFrontEnd,
    Overloaded,
    ServeConfig,
    ServeStats,
    percentile,
)

POINT_A = {"mode": "single", "platform": "Tegra2", "freq": 1.0}


def counting_runner(calls):
    """A runner that logs each batch and returns unit labels."""

    def run(units):
        calls.append([u.label() for u in units])
        return [u.label() for u in units]

    return run


def run_async(coro):
    return asyncio.run(coro)


class TestFunnel:
    def test_identical_inflight_requests_coalesce(self):
        async def scenario():
            calls = []
            fe = CampaignFrontEnd(
                ServeConfig(cache_dir=None), runner=counting_runner(calls)
            )
            await fe.start()
            results = await asyncio.gather(
                *(fe.submit("sweep_base", {}) for _ in range(8))
            )
            await fe.drain()
            return calls, results, fe.stats

        calls, results, stats = run_async(scenario())
        assert len(calls) == 1  # ONE computation served all eight
        values = {v for v, _ in results}
        assert values == {"sweep_base()"}
        assert sorted(s for _, s in results) == ["coalesced"] * 7 + [
            "computed"
        ]
        assert (stats.coalesced, stats.computed) == (7, 1)
        assert stats.hit_ratio == pytest.approx(7 / 8)

    def test_cache_hit_skips_the_runner(self, tmp_path):
        async def scenario():
            calls = []
            fe = CampaignFrontEnd(
                ServeConfig(cache_dir=tmp_path), runner=counting_runner(calls)
            )
            await fe.start()
            first = await fe.submit("sweep_point", POINT_A)
            again = await fe.submit("sweep_point", POINT_A)
            await fe.drain()
            return calls, first, again, fe.stats

        calls, first, again, stats = run_async(scenario())
        assert len(calls) == 1
        assert first[1] == "computed" and again[1] == "cache"
        assert first[0] == again[0]
        assert stats.cache_hits == 1

    def test_distinct_misses_micro_batch(self):
        async def scenario():
            calls = []
            fe = CampaignFrontEnd(
                ServeConfig(cache_dir=None, batch_window_s=0.05),
                runner=counting_runner(calls),
            )
            await fe.start()
            freqs = [0.1 * i for i in range(1, 7)]
            await asyncio.gather(
                *(
                    fe.submit("sweep_point", {**POINT_A, "freq": f})
                    for f in freqs
                )
            )
            await fe.drain()
            return calls, fe.stats

        calls, stats = run_async(scenario())
        assert len(calls) == 1  # one window collected all six misses
        assert len(calls[0]) == 6
        assert stats.batches == 1 and stats.mean_batch_size == 6

    def test_max_batch_splits_oversized_windows(self):
        async def scenario():
            calls = []
            fe = CampaignFrontEnd(
                ServeConfig(cache_dir=None, batch_window_s=0.05, max_batch=4),
                runner=counting_runner(calls),
            )
            await fe.start()
            await asyncio.gather(
                *(
                    fe.submit("sweep_point", {**POINT_A, "freq": 0.1 * i})
                    for i in range(1, 11)
                )
            )
            await fe.drain()
            return calls

        calls = run_async(scenario())
        assert sum(len(c) for c in calls) == 10
        assert max(len(c) for c in calls) <= 4

    def test_unknown_kind_rejected(self):
        async def scenario():
            fe = CampaignFrontEnd(
                ServeConfig(cache_dir=None), runner=lambda units: []
            )
            await fe.start()
            try:
                with pytest.raises(ValueError, match="work-unit kind"):
                    await fe.submit("nonsense", {})
            finally:
                await fe.drain()

        run_async(scenario())

    def test_runner_failure_reaches_every_waiter(self):
        async def scenario():
            def broken(units):
                raise RuntimeError("kaboom")

            fe = CampaignFrontEnd(
                ServeConfig(cache_dir=None), runner=broken
            )
            await fe.start()
            results = await asyncio.gather(
                *(fe.submit("sweep_base", {}) for _ in range(3)),
                return_exceptions=True,
            )
            # The front end must have cleaned up: a later submit gets a
            # fresh computation, not the dead in-flight future.
            with pytest.raises(RuntimeError, match="kaboom"):
                await fe.submit("sweep_base", {})
            await fe.drain()
            return results, fe.stats

        results, stats = run_async(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)
        assert stats.failed == 4


class TestAdmissionControl:
    def test_overload_rejected_with_retry_after(self):
        async def scenario():
            release = threading.Event()

            def blocking(units):
                release.wait(timeout=10)
                return [u.label() for u in units]

            fe = CampaignFrontEnd(
                ServeConfig(
                    cache_dir=None, queue_limit=2, batch_window_s=0.0,
                    max_batch=1,
                ),
                runner=blocking,
            )
            await fe.start()
            first = asyncio.ensure_future(fe.submit("sweep_base", {}))
            second = asyncio.ensure_future(
                fe.submit("sweep_point", POINT_A)
            )
            await asyncio.sleep(0.05)  # both occupy the pending bound
            with pytest.raises(Overloaded) as excinfo:
                await fe.submit("sweep_point", {**POINT_A, "freq": 0.5})
            release.set()
            await asyncio.gather(first, second)
            await fe.drain()
            return excinfo.value, fe.stats

        exc, stats = run_async(scenario())
        assert exc.retry_after_s > 0
        assert exc.reason == "overloaded"
        assert stats.rejected == 1
        assert stats.accepted == 2  # rejects never count as accepted

    def test_coalesced_requests_admitted_even_when_full(self):
        async def scenario():
            release = threading.Event()

            def blocking(units):
                release.wait(timeout=10)
                return [u.label() for u in units]

            fe = CampaignFrontEnd(
                ServeConfig(cache_dir=None, queue_limit=1),
                runner=blocking,
            )
            await fe.start()
            first = asyncio.ensure_future(fe.submit("sweep_base", {}))
            await asyncio.sleep(0.05)
            # The queue is full, but an identical request costs no
            # worker time — it must ride the in-flight computation.
            dup = asyncio.ensure_future(fe.submit("sweep_base", {}))
            await asyncio.sleep(0.05)
            assert not dup.done()
            release.set()
            results = await asyncio.gather(first, dup)
            await fe.drain()
            return results, fe.stats

        results, stats = run_async(scenario())
        assert [s for _, s in results] == ["computed", "coalesced"]
        assert stats.rejected == 0


class TestGracefulDrain:
    def test_drain_resolves_everything_accepted(self):
        async def scenario():
            release = threading.Event()

            def blocking(units):
                release.wait(timeout=10)
                return [u.label() for u in units]

            fe = CampaignFrontEnd(
                ServeConfig(cache_dir=None, batch_window_s=0.0),
                runner=blocking,
            )
            await fe.start()
            inflight = [
                asyncio.ensure_future(
                    fe.submit("sweep_point", {**POINT_A, "freq": 0.1 * i})
                )
                for i in range(1, 5)
            ]
            await asyncio.sleep(0.05)
            drainer = asyncio.ensure_future(fe.drain())
            await asyncio.sleep(0.05)
            assert fe.draining and not drainer.done()
            release.set()
            await drainer
            results = await asyncio.gather(*inflight)
            return results, fe.stats

        results, stats = run_async(scenario())
        assert len(results) == 4  # none dropped
        assert stats.computed == 4 and stats.failed == 0

    def test_new_misses_rejected_while_draining(self):
        async def scenario():
            fe = CampaignFrontEnd(
                ServeConfig(cache_dir=None),
                runner=lambda units: [u.label() for u in units],
            )
            await fe.start()
            await fe.submit("sweep_base", {})
            await fe.drain()
            with pytest.raises(Overloaded) as excinfo:
                await fe.submit("sweep_point", POINT_A)
            return excinfo.value

        exc = run_async(scenario())
        assert exc.reason == "draining"

    def test_cache_hits_still_served_after_drain(self, tmp_path):
        async def scenario():
            fe = CampaignFrontEnd(
                ServeConfig(cache_dir=tmp_path),
                runner=lambda units: [u.label() for u in units],
            )
            await fe.start()
            await fe.submit("sweep_base", {})
            await fe.drain()
            # Costs no worker time, so the drained front end can still
            # answer it (the transport decides when to stop listening).
            return await fe.submit("sweep_base", {})

        value, served = run_async(scenario())
        assert served == "cache" and value == "sweep_base()"


class TestBoundedDrain:
    def test_drain_timeout_fails_stragglers_with_retryable_error(self):
        async def scenario():
            release = threading.Event()

            def blocking(units):
                release.wait(timeout=10)
                return [u.label() for u in units]

            fe = CampaignFrontEnd(
                ServeConfig(cache_dir=None, batch_window_s=0.0),
                runner=blocking,
            )
            await fe.start()
            inflight = [
                asyncio.ensure_future(
                    fe.submit("sweep_point", {**POINT_A, "freq": 0.1 * i})
                )
                for i in range(1, 4)
            ]
            await asyncio.sleep(0.05)
            t0 = asyncio.get_running_loop().time()
            drained = await fe.drain(timeout_s=0.1)
            elapsed = asyncio.get_running_loop().time() - t0
            results = await asyncio.gather(*inflight, return_exceptions=True)
            release.set()
            return drained, elapsed, results

        drained, elapsed, results = run_async(scenario())
        assert drained is False
        assert elapsed < 5.0  # bounded, not held hostage by the batch
        # Every unresolved waiter is released NOW with a retryable error.
        assert all(isinstance(r, Overloaded) for r in results)
        assert all(r.reason == "draining" for r in results)
        assert all(r.retry_after_s > 0 for r in results)

    def test_drain_timeout_noop_when_everything_resolves_in_time(self):
        async def scenario():
            fe = CampaignFrontEnd(
                ServeConfig(cache_dir=None),
                runner=lambda units: [u.label() for u in units],
            )
            await fe.start()
            await fe.submit("sweep_base", {})
            return await fe.drain(timeout_s=5.0)

        assert run_async(scenario()) is True


class TestRetryAfterHint:
    def test_hint_is_finite_and_positive_before_any_batch(self):
        """Regression: before the first batch completes the observed
        throughput is zero, and the hint degenerated instead of falling
        back to the batch window."""

        async def scenario():
            release = threading.Event()

            def blocking(units):
                release.wait(timeout=10)
                return [u.label() for u in units]

            fe = CampaignFrontEnd(
                ServeConfig(
                    cache_dir=None, batch_window_s=0.02, queue_limit=1,
                    max_batch=4,
                ),
                runner=blocking,
            )
            await fe.start()
            first = asyncio.ensure_future(fe.submit("sweep_base", {}))
            await asyncio.sleep(0.005)
            with pytest.raises(Overloaded) as excinfo:
                await fe.submit("sweep_point", POINT_A)
            release.set()
            await first
            await fe.drain()
            return excinfo.value

        exc = run_async(scenario())
        assert exc.retry_after_s > 0
        assert exc.retry_after_s != float("inf")
        # One pending batch at zero observed throughput: the hint is the
        # batch window per not-yet-started batch, never zero.
        assert exc.retry_after_s >= 0.02

    def test_hint_scales_with_backlog_before_any_batch(self):
        fe = CampaignFrontEnd(
            ServeConfig(cache_dir=None, batch_window_s=0.02, max_batch=2),
            runner=lambda units: [u.label() for u in units],
        )
        fe._pending_units = 10  # 5 batches of 2 still to run
        assert fe._retry_after() == pytest.approx(5 * 0.02)
        fe._pending_units = 1
        assert fe._retry_after() == pytest.approx(0.02)


class TestObsIntegration:
    def test_serve_totals_and_batch_spans_recorded(self):
        async def scenario():
            fe = CampaignFrontEnd(
                ServeConfig(cache_dir=None, batch_window_s=0.02),
                runner=lambda units: [u.label() for u in units],
            )
            await fe.start()
            await asyncio.gather(
                *(fe.submit("sweep_base", {}) for _ in range(3))
            )
            await fe.drain()

        with recorder.recording() as rec:
            run_async(scenario())
        assert rec.totals["serve.computed"] == 1
        assert rec.totals["serve.coalesced"] == 2
        assert rec.totals["serve.batches"] == 1
        spans = rec.spans_by_cat("serve")
        assert [s.name for s in spans] == ["serve.batch"]
        assert dict(spans[0].args)["batch"] == 1
        assert any(c.name == "serve.queue_depth" for c in rec.counters)


class TestConfigAndHelpers:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hot_values": -1},
            {"max_batch": 0},
            {"queue_limit": 0},
            {"batch_window_s": -0.1},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    def test_percentile_nearest_rank(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.99) == 99.0
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 100.0
        assert percentile([7.0], 0.5) == 7.0

    def test_percentile_rejects_bad_input(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 0.5)
        with pytest.raises(ValueError, match="q must be"):
            percentile([1.0], 1.5)

    def test_stats_snapshot_shape(self):
        stats = ServeStats()
        assert stats.hit_ratio == 0.0 and stats.mean_batch_size == 0.0
        stats.accepted = 4
        stats.cache_hits = 1
        stats.coalesced = 1
        stats.record_latency(0.25)
        snap = stats.snapshot()
        assert snap["hit_ratio"] == 0.5
        assert snap["p50_latency_s"] == 0.25

    def test_latency_window_keeps_the_most_recent_samples(self, monkeypatch):
        """Past the window, new samples still move p50/p99: pre-fix the
        list stopped recording at its bound and the percentiles froze."""
        from repro.serve import frontend

        monkeypatch.setattr(frontend, "LATENCY_WINDOW", 100)
        stats = ServeStats()
        for _ in range(100):
            stats.record_latency(0.001)
        assert stats.snapshot()["p99_latency_s"] == 0.001
        for _ in range(50):
            stats.record_latency(0.5)
        snap = stats.snapshot()
        assert len(stats.latencies_s) == 100
        assert snap["p99_latency_s"] == 0.5
        assert snap["p50_latency_s"] == 0.001
        for _ in range(60):
            stats.record_latency(0.5)
        assert stats.snapshot()["p50_latency_s"] == 0.5

    def test_snapshot_sorts_the_window_once(self, monkeypatch):
        """A ``stats`` call runs on the event loop: p50 and p99 come
        from one sort of the window, not one sort each."""
        import builtins

        from repro.serve import frontend

        sorts = []

        def counting_sorted(values, *args, **kwargs):
            sorts.append(len(values))
            return builtins.sorted(values, *args, **kwargs)

        monkeypatch.setattr(frontend, "sorted", counting_sorted, raising=False)
        stats = ServeStats()
        for i in range(1, 101):
            stats.record_latency(i / 1000)
        snap = stats.snapshot()
        assert sorts == [100]
        assert snap["p50_latency_s"] == 0.050
        assert snap["p99_latency_s"] == 0.099
