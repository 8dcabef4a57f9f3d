"""The front end's real execution path (no injected runner): sweep
misses are computed inline on the event-loop thread with their cache
writes on the executor thread, Figure 6 and headline simulations go
through the executor thread (and the worker pool, when ``jobs > 1``),
every query fails only on its own error, and ``jobs=1`` forks
nothing."""

import asyncio
import multiprocessing
import threading

import pytest

from repro.core.study import MobileSoCStudy
from repro.parallel import runner as runner_mod
from repro.parallel import units as units_mod
from repro.parallel.cache import ResultCache, unit_key
from repro.parallel.units import execute_unit
from repro.serve.frontend import CampaignFrontEnd, ServeConfig

GOOD = {"mode": "single", "platform": "Tegra2", "freq": 0.777}
FIG6 = {"app": "HPL", "n": 1, "max_nodes": 8}


def run_async(coro):
    return asyncio.run(coro)


def frontend(**kwargs):
    kwargs.setdefault("cache_dir", None)
    return CampaignFrontEnd(ServeConfig(**kwargs))


class TestFailureIsolation:
    def test_one_bad_query_fails_only_itself(self):
        """Regression: a bad query in a micro-batch used to fail every
        query in it, valid ones included."""

        async def scenario():
            fe = frontend(batch_window_s=0.2)
            await fe.start()
            try:
                return await asyncio.gather(
                    fe.submit("sweep_point", GOOD),
                    fe.submit("sweep_point", {**GOOD, "freq": -1.0}),
                    fe.submit("sweep_point", {**GOOD, "platform": "NoSuch"}),
                    return_exceptions=True,
                ), fe.stats
            finally:
                await fe.drain()

        (good, negative, unknown), stats = run_async(scenario())
        assert good == (execute_unit("sweep_point", GOOD), "computed")
        assert isinstance(negative, ValueError)
        assert "frequency must be positive" in str(negative)
        assert isinstance(unknown, KeyError)
        assert stats.batches == 1  # all three shared one micro-batch
        assert (stats.computed, stats.failed) == (1, 2)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_bad_simulation_fails_only_itself(self, jobs):
        """In process and through the pool alike, the bad unit's own
        exception type reaches its waiter (it decides bad_request)."""

        async def scenario():
            fe = frontend(batch_window_s=0.2, jobs=jobs)
            await fe.start()
            try:
                return await asyncio.gather(
                    fe.submit("fig6_point", FIG6),
                    fe.submit("fig6_point", {**FIG6, "app": "NoSuch"}),
                    return_exceptions=True,
                )
            finally:
                await fe.drain()

        good, bad = run_async(scenario())
        assert good[0] == execute_unit("fig6_point", FIG6)
        assert isinstance(bad, KeyError)


class TestExecutionSplit:
    def test_one_job_forks_no_worker_process(self):
        before = set(multiprocessing.active_children())

        async def scenario():
            fe = frontend(jobs=1)
            await fe.start()
            try:
                await asyncio.gather(
                    fe.submit("sweep_point", GOOD),
                    fe.submit("sweep_base", {}),
                    fe.submit("fig6_point", FIG6),
                )
                return set(multiprocessing.active_children())
            finally:
                await fe.drain()

        assert run_async(scenario()) - before == set()

    def test_pool_forked_at_start(self):
        before = set(multiprocessing.active_children())

        async def scenario():
            fe = frontend(jobs=2)
            await fe.start()
            try:
                return set(multiprocessing.active_children())
            finally:
                await fe.drain()

        assert len(run_async(scenario()) - before) == 2
        assert set(multiprocessing.active_children()) - before == set()

    def test_sweeps_run_on_the_loop_and_simulations_on_the_executor(
        self, monkeypatch
    ):
        threads = {}
        sweep_points = MobileSoCStudy.sweep_points

        def spy_sweep(self, mode, points=None):
            threads.setdefault("sweep", threading.current_thread().name)
            return sweep_points(self, mode, points)

        def spy_unit(kind, params, seed=0):
            threads.setdefault(kind, threading.current_thread().name)
            return execute_unit(kind, params, seed)

        monkeypatch.setattr(MobileSoCStudy, "sweep_points", spy_sweep)
        monkeypatch.setattr(units_mod, "execute_unit", spy_unit)

        async def scenario():
            fe = frontend(batch_window_s=0.1, jobs=1)
            await fe.start()
            try:
                await asyncio.gather(
                    fe.submit("sweep_point", GOOD),
                    fe.submit("sweep_base", {}),
                    fe.submit("fig6_point", FIG6),
                )
                return threading.current_thread().name
            finally:
                await fe.drain()

        loop_thread = run_async(scenario())
        assert threads["sweep"] == loop_thread
        assert threads["sweep_base"] == loop_thread
        assert threads["fig6_point"].startswith("repro-serve-batch")

    def test_hot_hit_answered_while_a_simulation_computes(
        self, monkeypatch, tmp_path
    ):
        started, release = threading.Event(), threading.Event()

        def slow_unit(kind, params, seed=0):
            if kind == "fig6_point":
                started.set()
                assert release.wait(10.0)
            return execute_unit(kind, params, seed)

        monkeypatch.setattr(units_mod, "execute_unit", slow_unit)

        async def scenario():
            fe = frontend(cache_dir=tmp_path, jobs=1)
            await fe.start()
            try:
                await fe.submit("sweep_point", GOOD)  # now a hot key
                sim = asyncio.ensure_future(fe.submit("fig6_point", FIG6))
                while not started.is_set():
                    await asyncio.sleep(0.005)
                hit = await asyncio.wait_for(
                    fe.submit("sweep_point", GOOD), 5.0
                )
                still_computing = not sim.done()
                release.set()
                return hit, still_computing, await sim
            finally:
                release.set()
                await fe.drain()

        (value, served), still_computing, (_sim, sim_served) = run_async(
            scenario()
        )
        assert served == "cache" and still_computing
        assert value == execute_unit("sweep_point", GOOD)
        assert sim_served == "computed"

    def test_simulation_batches_go_to_the_pool(self, monkeypatch):
        seen = []
        run_units = runner_mod.run_units

        def spy(units, **kwargs):
            seen.append(([u.kind for u in units], kwargs.get("pool")))
            return run_units(units, **kwargs)

        monkeypatch.setattr(runner_mod, "run_units", spy)
        sims = [{**FIG6, "n": n} for n in (1, 2)]

        async def scenario():
            fe = frontend(batch_window_s=0.2, jobs=2)
            await fe.start()
            try:
                values = await asyncio.gather(
                    fe.submit("sweep_point", GOOD),
                    *(fe.submit("fig6_point", p) for p in sims),
                )
                return values, fe._pool
            finally:
                await fe.drain()

        values, pool = run_async(scenario())
        assert pool is not None
        assert seen == [(["fig6_point", "fig6_point"], pool)]
        assert [v for v, _ in values] == [
            execute_unit("sweep_point", GOOD),
            *(execute_unit("fig6_point", p) for p in sims),
        ]

    def test_inline_cache_writes_stay_off_the_loop(
        self, monkeypatch, tmp_path
    ):
        """A put can scan or evict the whole store; it must never hold
        the loop, so a hit is answered while one is stuck."""
        warm = ResultCache(tmp_path)
        hot = {**GOOD, "freq": 1.0}
        warm.put(unit_key("sweep_point", hot, 0),
                 execute_unit("sweep_point", hot), kind="sweep_point")
        entered, release = threading.Event(), threading.Event()
        put_threads = []
        put = ResultCache.put

        def slow_put(self, key, value, kind=""):
            put_threads.append(threading.current_thread().name)
            entered.set()
            assert release.wait(10.0)
            return put(self, key, value, kind=kind)

        monkeypatch.setattr(ResultCache, "put", slow_put)

        async def scenario():
            fe = frontend(cache_dir=tmp_path, jobs=1)
            await fe.start()
            try:
                miss = await asyncio.wait_for(
                    fe.submit("sweep_point", GOOD), 5.0
                )
                while not entered.is_set():
                    await asyncio.sleep(0.005)
                hit = await asyncio.wait_for(fe.submit("sweep_point", hot), 5.0)
                release.set()
                return miss, hit
            finally:
                release.set()
                await fe.drain()

        (_v, miss_served), (_h, hit_served) = run_async(scenario())
        assert (miss_served, hit_served) == ("computed", "cache")
        assert put_threads and all(
            name.startswith("repro-serve-batch") for name in put_threads
        )
        monkeypatch.undo()
        assert ResultCache(tmp_path).get(
            unit_key("sweep_point", GOOD, 0)
        ) == execute_unit("sweep_point", GOOD)

    def test_failed_inline_cache_write_is_reported_not_raised(
        self, monkeypatch, tmp_path, capsys
    ):
        def broken_put(self, key, value, kind=""):
            raise OSError("disk full")

        monkeypatch.setattr(ResultCache, "put", broken_put)

        async def scenario():
            fe = frontend(cache_dir=tmp_path, jobs=1)
            await fe.start()
            try:
                return await fe.submit("sweep_point", GOOD)
            finally:
                await fe.drain()

        assert run_async(scenario()) == (
            execute_unit("sweep_point", GOOD), "computed"
        )
        err = capsys.readouterr().err
        assert "cache write-through failed" in err
        assert "OSError: disk full" in err

    def test_inline_batch_honours_the_scalar_oracle(self, monkeypatch):
        calls = []
        sweep_points = MobileSoCStudy.sweep_points

        def counting(self, mode, points=None):
            calls.append(mode)
            return sweep_points(self, mode, points)

        monkeypatch.setattr(MobileSoCStudy, "sweep_points", counting)
        monkeypatch.setenv("REPRO_SCALAR_SWEEP", "1")
        points = [{**GOOD, "freq": f} for f in (0.5, 0.6, 0.7)]

        async def scenario():
            fe = frontend(batch_window_s=0.1)
            await fe.start()
            try:
                return await asyncio.gather(
                    *(fe.submit("sweep_point", p) for p in points)
                )
            finally:
                await fe.drain()

        results = run_async(scenario())
        assert calls == []
        study = MobileSoCStudy()
        assert [v for v, _ in results] == [
            study._sweep_point_scalar("single", "Tegra2", p["freq"])
            for p in points
        ]


@pytest.mark.parametrize("cache", [False, True])
def test_inline_values_match_the_oracle(tmp_path, cache):
    points = [
        {"mode": mode, "platform": platform, "freq": freq}
        for mode in ("single", "multi")
        for platform, freq in (("Tegra3", 0.613), ("Exynos5250", 1.47))
    ]

    async def scenario():
        fe = frontend(cache_dir=tmp_path if cache else None)
        await fe.start()
        try:
            return await asyncio.gather(
                *(fe.submit("sweep_point", p) for p in points)
            )
        finally:
            await fe.drain()

    results = run_async(scenario())
    expected = [execute_unit("sweep_point", p) for p in points]
    assert [v for v, _ in results] == expected
    if cache:  # written through by the time drain returns
        stored = ResultCache(tmp_path)
        assert [
            stored.get(unit_key("sweep_point", p, 0)) for p in points
        ] == expected
