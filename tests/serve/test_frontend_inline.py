"""The front end's real execution path (no injected runner): sweep
misses are computed on submit, on the event-loop thread, and kept in
memory only; Figure 6 and headline simulations run in process on the
executor thread and are written through to the result cache; job
batches run there too and are written once, by the job manager; every
query fails only on its own error, and nothing forks a worker."""

import asyncio
import multiprocessing.pool
import threading

import pytest

from repro.apps import APPLICATIONS
from repro.core.study import MobileSoCStudy
from repro.parallel import runner as runner_mod
from repro.parallel import units as units_mod
from repro.parallel.cache import ResultCache, unit_key
from repro.parallel.units import WorkUnit, execute_unit
from repro.serve.frontend import CampaignFrontEnd, ServeConfig
from repro.serve.jobs import TERMINAL_STATES, JobManager
from repro.serve.journal import JobJournal

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
        query in it, valid ones included.  Sweep misses no longer share
        a batch at all: each is computed alone on submit."""

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
        assert isinstance(unknown, ValueError)
        assert "unknown platform 'NoSuch'" in str(unknown)
        assert stats.batches == 0  # none went through the batcher
        assert (stats.computed, stats.failed) == (1, 2)

    @pytest.mark.parametrize("n_good", [1, 2])
    def test_bad_simulation_fails_only_itself(self, n_good):
        """Beside one or two good simulations in the same batch, the bad
        unit's own exception type reaches its waiter (it decides
        bad_request)."""
        goods = [{**FIG6, "n": n} for n in range(1, n_good + 1)]

        async def scenario():
            fe = frontend(batch_window_s=0.2)
            await fe.start()
            try:
                return await asyncio.gather(
                    *(fe.submit("fig6_point", p) for p in goods),
                    fe.submit("fig6_point", {**FIG6, "app": "NoSuch"}),
                    return_exceptions=True,
                ), fe.stats
            finally:
                await fe.drain()

        (*good, bad), stats = run_async(scenario())
        assert [v for v, _ in good] == [
            execute_unit("fig6_point", p) for p in goods
        ]
        assert isinstance(bad, ValueError)
        assert stats.batches == 1


#: Malformed ``sweep_point`` params: each is the client's error and
#: fails alone.  Unknown platforms and missing keys used to surface as
#: KeyError, string frequencies as TypeError and a frequency so high
#: that every time underflows as ZeroDivisionError, all answered as
#: ``internal``; an unhashable mode failed its whole micro-batch.
MALFORMED_SWEEPS = [
    {**GOOD, "platform": "NoSuch"},
    {"platform": "Tegra2", "freq": 0.777},
    {"mode": "single", "platform": "Tegra2"},
    {**GOOD, "freq": "0.777"},
    {**GOOD, "freq": 1e308},
    {**GOOD, "freq": True},
    {**GOOD, "platform": ["Tegra2"]},
    {**GOOD, "mode": ["single"]},
]


class TestMalformedSweepParams:
    def test_submit_raises_value_error(self):
        """Beside a good query in the same micro-batch, each malformed
        one fails alone with ValueError (non-finite frequencies too)."""
        bad = MALFORMED_SWEEPS + [
            {**GOOD, "freq": float("inf")},
            {**GOOD, "freq": float("nan")},
            {**GOOD, "freq": 10**400},
        ]

        async def scenario():
            fe = frontend(batch_window_s=0.2)
            await fe.start()
            try:
                return await asyncio.gather(
                    fe.submit("sweep_point", GOOD),
                    *(fe.submit("sweep_point", p) for p in bad),
                    return_exceptions=True,
                )
            finally:
                await fe.drain()

        good, *failures = run_async(scenario())
        assert good == (execute_unit("sweep_point", GOOD), "computed")
        for params, exc in zip(bad, failures):
            assert isinstance(exc, ValueError), (params, exc)

    @pytest.mark.parametrize("wire", ["json", "binary1"])
    def test_server_answers_bad_request(self, wire):
        """Over either wire, through the real execution path."""
        assert_answers_bad_request(wire, "sweep_point", GOOD, MALFORMED_SWEEPS)


def assert_answers_bad_request(wire, kind, good, malformed):
    """One server, one connection on ``wire``: ``good`` is answered
    with the oracle's value and each of ``malformed`` ``bad_request``."""
    from repro.serve.server import ServeServer
    from repro.serve.wire import WireConnection

    async def scenario():
        server = ServeServer(frontend(batch_window_s=0.005))
        await server.start()
        run_task = asyncio.ensure_future(server.serve_until_shutdown())
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        conn = WireConnection(reader, writer, allow_binary=False)
        if wire == "binary1":
            assert await conn.negotiate()
        docs = []
        for rid, params in enumerate([good] + malformed):
            conn.write_request({"op": "query", "id": rid,
                                "kind": kind, "params": params})
            await conn.drain()
            docs.append(await conn.recv())
        conn.write_request({"op": "shutdown", "id": "bye"})
        await conn.drain()
        await conn.recv()
        await run_task
        writer.close()
        return conn.wire, docs

    used, (good_doc, *docs) = run_async(scenario())
    assert used == wire
    assert good_doc["ok"] is True
    assert good_doc["value"] == execute_unit(kind, good)
    for params, doc in zip(malformed, docs):
        assert doc["ok"] is False, params
        assert doc["error"] == "bad_request", (params, doc)


#: Malformed ``fig6_point`` params.  An unknown app and a missing key
#: used to surface as KeyError and a string node count as TypeError,
#: all answered as ``internal``; a bool count was simulated as 1 node.
MALFORMED_FIG6 = [
    {**FIG6, "app": "NoSuch"},
    {"n": 1, "max_nodes": 8},
    {**FIG6, "app": ["HPL"]},
    {"app": "HPL", "max_nodes": 8},
    {**FIG6, "n": "1"},
    {**FIG6, "n": True},
    {**FIG6, "n": 1.0},
    {"app": "HPL", "n": 1},
    {**FIG6, "max_nodes": "8"},
    {**FIG6, "max_nodes": True},
]


class TestMalformedFig6Params:
    def test_submit_raises_value_error(self):
        async def scenario():
            fe = frontend(batch_window_s=0.2)
            await fe.start()
            try:
                return await asyncio.gather(
                    fe.submit("fig6_point", FIG6),
                    *(fe.submit("fig6_point", p) for p in MALFORMED_FIG6),
                    return_exceptions=True,
                )
            finally:
                await fe.drain()

        good, *failures = run_async(scenario())
        assert good == (execute_unit("fig6_point", FIG6), "computed")
        for params, exc in zip(MALFORMED_FIG6, failures):
            assert isinstance(exc, ValueError), (params, exc)

    @pytest.mark.parametrize("wire", ["json", "binary1"])
    def test_server_answers_bad_request(self, wire):
        assert_answers_bad_request(wire, "fig6_point", FIG6, MALFORMED_FIG6)

    @pytest.mark.parametrize("app", sorted(APPLICATIONS))
    def test_valid_points_are_the_simulation(self, app):
        """The checks change no value: a unit is its app's simulation."""
        from repro.cluster.cluster import tibidabo

        for n, max_nodes in ((1, 8), (4, 16)):
            result = APPLICATIONS[app].simulate(tibidabo(max_nodes), n)
            value = execute_unit(
                "fig6_point", {"app": app, "n": n, "max_nodes": max_nodes}
            )
            assert value == {
                "app": result.app, "n_nodes": result.n_nodes,
                "time_s": result.time_s, "flops": result.flops,
                "steps": result.steps, "comm_fraction": result.comm_fraction,
            }


#: Malformed ``headline`` params.  A missing count used to surface as
#: KeyError and a string one as TypeError, both answered as
#: ``internal``; a bool count was simulated as 1 node.
MALFORMED_HEADLINES = [{}, {"n_nodes": "96"}, {"n_nodes": True}]


class TestMalformedHeadlineParams:
    def test_submit_raises_value_error(self):
        async def scenario():
            fe = frontend(batch_window_s=0.2)
            await fe.start()
            try:
                return await asyncio.gather(
                    *(fe.submit("headline", p) for p in MALFORMED_HEADLINES),
                    return_exceptions=True,
                )
            finally:
                await fe.drain()

        failures = run_async(scenario())
        for params, exc in zip(MALFORMED_HEADLINES, failures):
            assert isinstance(exc, ValueError), (params, exc)
            assert "n_nodes" in str(exc)


class TestExecutionSplit:
    def test_one_job_forks_no_worker_process(self, monkeypatch, tmp_path):
        """A default-config front end answers sweep, Figure 6 and
        job-batch misses with pool creation patched to fail."""

        def no_pool(self, *args, **kwargs):
            raise AssertionError("the serve front end forked a pool")

        monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", no_pool)
        before = set(multiprocessing.active_children())
        job = [WorkUnit("sweep_point", {**GOOD, "freq": 0.9}),
               WorkUnit("fig6_point", {**FIG6, "n": 2})]

        async def scenario():
            fe = CampaignFrontEnd(ServeConfig(cache_dir=tmp_path))
            await fe.start()
            try:
                queries = await asyncio.gather(
                    fe.submit("sweep_point", GOOD),
                    fe.submit("sweep_base", {}),
                    fe.submit("fig6_point", FIG6),
                )
                return (queries, await fe.execute_units(job),
                        set(multiprocessing.active_children()))
            finally:
                await fe.drain()

        queries, job_values, children = run_async(scenario())
        assert children - before == set()
        assert [v for v, _ in queries] == [
            execute_unit("sweep_point", GOOD),
            execute_unit("sweep_base", {}),
            execute_unit("fig6_point", FIG6),
        ]
        assert job_values == [execute_unit(u.kind, u.params) for u in job]

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
            fe = frontend(batch_window_s=0.1)
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
            fe = frontend(cache_dir=tmp_path)
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

    def test_simulation_batches_run_in_process(self, monkeypatch):
        """The two simulations of a batch go to ``run_units`` as one
        call on the executor thread, which computes them in process."""
        seen = []
        run_units = runner_mod.run_units

        def spy(units, **kwargs):
            seen.append(([u.kind for u in units], sorted(kwargs),
                         threading.current_thread().name))
            return run_units(units, **kwargs)

        monkeypatch.setattr(runner_mod, "run_units", spy)
        sims = [{**FIG6, "n": n} for n in (1, 2)]

        async def scenario():
            fe = frontend(batch_window_s=0.2)
            await fe.start()
            try:
                return await asyncio.gather(
                    fe.submit("sweep_point", GOOD),
                    *(fe.submit("fig6_point", p) for p in sims),
                )
            finally:
                await fe.drain()

        values = run_async(scenario())
        [(kinds, kwargs, thread)] = seen
        assert kinds == ["fig6_point", "fig6_point"]
        assert kwargs == ["cache", "safe", "seed", "write"]
        assert thread.startswith("repro-serve-batch")
        assert [v for v, _ in values] == [
            execute_unit("sweep_point", GOOD),
            *(execute_unit("fig6_point", p) for p in sims),
        ]

    def test_job_batch_groups_sweep_points_per_mode(self, monkeypatch):
        """A job batch of sweep points makes one ``sweep_points`` call
        per mode, in process, bit-identical to the scalar units."""
        calls = []
        sweep_points = MobileSoCStudy.sweep_points

        def spy(self, mode, points=None):
            calls.append((mode, len(points)))
            return sweep_points(self, mode, points)

        monkeypatch.setattr(MobileSoCStudy, "sweep_points", spy)
        units = [
            WorkUnit("sweep_point", {**GOOD, "mode": mode, "freq": freq})
            for mode in ("single", "multi") for freq in (0.5, 0.6, 0.7)
        ]

        async def scenario():
            fe = frontend()
            await fe.start()
            try:
                return await fe.execute_units(units)
            finally:
                await fe.drain()

        values = run_async(scenario())
        assert calls == [("single", 3), ("multi", 3)]
        study = MobileSoCStudy()
        assert values == [
            study._sweep_point_scalar(
                u.params["mode"], u.params["platform"], u.params["freq"]
            )
            for u in units
        ]

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


def refuse_result_cache(monkeypatch):
    """Make every ``ResultCache.get`` and ``put`` fail the test."""

    def refused(*args, **kwargs):
        raise AssertionError("an inline kind touched the result cache")

    monkeypatch.setattr(ResultCache, "get", refused)
    monkeypatch.setattr(ResultCache, "put", refused)


INLINE_QUERIES = [("sweep_base", {})] + [
    ("sweep_point", {"mode": mode, "platform": platform, "freq": freq})
    for mode in ("single", "multi")
    for platform, freq in (("Tegra3", 0.613), ("Exynos5250", 1.47))
]


@pytest.mark.parametrize("cache", [False, True])
def test_inline_values_match_the_oracle(tmp_path, monkeypatch, cache):
    """With a cache directory too, the inline kinds never read or write
    the disk store on the query path (DESIGN.md section 11)."""
    if cache:
        refuse_result_cache(monkeypatch)

    async def scenario():
        fe = frontend(cache_dir=tmp_path if cache else None)
        await fe.start()
        try:
            return await asyncio.gather(
                *(fe.submit(kind, p) for kind, p in INLINE_QUERIES)
            )
        finally:
            await fe.drain()

    results = run_async(scenario())
    assert results == [
        (execute_unit(kind, p), "computed") for kind, p in INLINE_QUERIES
    ]
    assert not (tmp_path / "objects").exists()


class TestCacheTiers:
    def test_inline_repeat_is_a_hot_hit(self, tmp_path, monkeypatch):
        refuse_result_cache(monkeypatch)

        async def scenario():
            fe = frontend(cache_dir=tmp_path)
            await fe.start()
            try:
                first = [await fe.submit(k, p) for k, p in INLINE_QUERIES]
                again = [await fe.submit(k, p) for k, p in INLINE_QUERIES]
                return first, again, fe.stats
            finally:
                await fe.drain()

        first, again, stats = run_async(scenario())
        assert {served for _, served in first} == {"computed"}
        assert again == [(value, "cache") for value, _ in first]
        assert all(a[0] is f[0] for a, f in zip(again, first))
        assert stats.hot_hits == len(INLINE_QUERIES)

    def test_simulation_is_written_through_and_read_back(self, tmp_path):
        """A second front end on the same directory answers a Figure 6
        point from disk without computing it."""

        async def serve_once():
            fe = frontend(cache_dir=tmp_path)
            await fe.start()
            try:
                return await fe.submit("fig6_point", FIG6), fe.stats
            finally:
                await fe.drain()

        (value, served), _ = run_async(serve_once())
        assert served == "computed"
        assert ResultCache(tmp_path).get(
            unit_key("fig6_point", FIG6, 0)
        ) == value
        (again, served_again), stats = run_async(serve_once())
        assert (again, served_again) == (value, "cache")
        assert (stats.computed, stats.cache_hits, stats.hot_hits) == (0, 1, 0)

    def test_job_checkpoints_its_sweep_units(self, tmp_path):
        """The job tier keeps writing every kind: a cached unit is its
        restart checkpoint, written by the job manager."""
        units = [WorkUnit("sweep_point", GOOD), WorkUnit("sweep_base", {}),
                 WorkUnit("fig6_point", FIG6)]
        values = run_job(tmp_path, units)
        assert values == [execute_unit(u.kind, u.params) for u in units]
        stored = ResultCache(tmp_path / "cache")
        assert [
            stored.get(unit_key(u.kind, u.params, 0)) for u in units
        ] == values

    def test_job_unit_is_written_once(self, tmp_path, monkeypatch):
        """A job unit computed on ``execute_units`` is one cache write:
        the job manager's checkpoint.  The executor used to write it
        too, so a 5-unit job made 10 puts."""
        puts = []
        put = ResultCache.put

        def counting_put(self, key, value, kind=""):
            puts.append(key)
            put(self, key, value, kind)

        monkeypatch.setattr(ResultCache, "put", counting_put)
        units = [WorkUnit("sweep_point", {**GOOD, "freq": f})
                 for f in (0.5, 0.6, 0.7, 0.8, 0.9)]
        assert run_job(tmp_path, units) == [
            execute_unit(u.kind, u.params) for u in units
        ]
        assert len(puts) == len(set(puts)) == 5


def run_job(tmp_path, units):
    """Run ``units`` as one job through a :class:`JobManager` on the
    front end's ``execute_units``, both on ``tmp_path / "cache"``;
    returns the job's unit values."""

    async def scenario():
        fe = frontend(cache_dir=tmp_path / "cache")
        manager = JobManager(
            JobJournal(tmp_path / "journal", fsync=False),
            ResultCache(tmp_path / "cache"),
            fe.execute_units,
        )
        await fe.start()
        await manager.start()
        try:
            job = manager.submit(
                "t", [{"kind": u.kind, "params": u.params} for u in units]
            )
            while job.state not in TERMINAL_STATES:
                await asyncio.sleep(0.005)
            return manager.result(job.job_id)
        finally:
            await manager.drain()
            manager.close()
            await fe.drain()

    result = run_async(scenario())
    assert result["state"] == "done", result
    return [u["value"] for u in result["units"]]
