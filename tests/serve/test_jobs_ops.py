"""The job-tier wire protocol: submit/status/result/cancel over the
JSON-lines transport, error mapping, stats integration, and drain
ordering at shutdown.  Real server, ephemeral port, fake runner."""

import asyncio
import json

from repro.parallel.cache import ResultCache
from repro.serve.frontend import CampaignFrontEnd, ServeConfig
from repro.serve.jobs import JobManager, JobsConfig
from repro.serve.journal import JobJournal
from repro.serve.server import ServeServer


def label_runner(units):
    return [u.label() for u in units]


async def start_server(tmp_path, runner=label_runner, jobs_cfg=None,
                       **config_kw):
    config_kw.setdefault("cache_dir", tmp_path / "cache")
    config = ServeConfig(**config_kw)
    frontend = CampaignFrontEnd(config, runner)
    manager = JobManager(
        JobJournal(tmp_path / "journal", fsync=False),
        ResultCache(config.cache_dir),
        frontend.execute_units,
        jobs_cfg or JobsConfig(),
    )
    server = ServeServer(frontend, jobs_manager=manager)
    await server.start()
    run_task = asyncio.ensure_future(server.serve_until_shutdown())
    return server, run_task


async def connect(server):
    return await asyncio.open_connection("127.0.0.1", server.port)


async def request(reader, writer, doc):
    writer.write((json.dumps(doc) + "\n").encode())
    await writer.drain()
    line = await reader.readline()
    assert line, "server closed the connection unexpectedly"
    return json.loads(line)


async def wait_job_state(reader, writer, job_id, states, timeout_s=5.0):
    async def poll():
        while True:
            resp = await request(
                reader, writer,
                {"op": "status", "id": 99, "job_id": job_id},
            )
            if resp["job"]["state"] in states:
                return resp["job"]
            await asyncio.sleep(0.01)

    return await asyncio.wait_for(poll(), timeout=timeout_s)


UNITS = [
    {"kind": "sweep_point", "params": {"mode": "single",
                                       "platform": "Tegra2", "freq": f}}
    for f in (0.25, 0.5, 0.75)
]


class TestJobOps:
    def test_submit_watch_result_round_trip(self, tmp_path):
        async def scenario():
            server, run_task = await start_server(tmp_path)
            reader, writer = await connect(server)
            sub = await request(
                reader, writer,
                {"op": "submit", "id": 1, "tenant": "alice", "units": UNITS},
            )
            assert sub["ok"] and sub["n_units"] == 3
            job = await wait_job_state(
                reader, writer, sub["job_id"], ("done", "failed")
            )
            assert job["state"] == "done" and job["done"] == 3
            res = await request(
                reader, writer,
                {"op": "result", "id": 2, "job_id": sub["job_id"]},
            )
            assert res["ok"]
            values = [u["value"] for u in res["result"]["units"]]
            assert all(v.startswith("sweep_point(") for v in values)
            stats = await request(reader, writer, {"op": "stats", "id": 3})
            assert stats["jobs"]["submitted"] == 1
            assert stats["jobs"]["units_done"] == 3
            await request(reader, writer, {"op": "shutdown", "id": 4})
            await run_task
            writer.close()

        asyncio.run(scenario())

    def test_a_submit_over_64_kib_is_accepted(self, tmp_path):
        """A JSON line is bounded by ``MAX_FRAME_LEN``, like a binary
        frame.  A 1,000-unit submit (~93 KB) used to get no answer: a
        stream ``readline`` stops at 64 KiB, and its error dropped the
        connection."""
        units = [
            {"kind": "sweep_point", "params": {
                "mode": "single", "platform": "Tegra2", "freq": 0.2 + i / 1000,
            }}
            for i in range(1000)
        ]
        doc = {"op": "submit", "id": 1, "tenant": "alice", "units": units}

        async def scenario():
            server, run_task = await start_server(tmp_path)
            reader, writer = await connect(server)
            sub = await asyncio.wait_for(request(reader, writer, doc), 10)
            ping = await request(reader, writer, {"op": "ping", "id": 2})
            await request(reader, writer, {"op": "shutdown", "id": 3})
            await run_task
            writer.close()
            return sub, ping

        sub, ping = asyncio.run(scenario())
        assert len(json.dumps(doc)) > 90_000
        assert sub["ok"] and sub["n_units"] == 1000
        assert ping == {"id": 2, "ok": True}

    def test_runner_crash_quarantines_each_job_unit(self, tmp_path):
        """A runner that raises fails the whole job batch: each of its
        units is quarantined on that one attempt, and a resubmit is the
        retry (here to success)."""
        calls = []

        def flaky_runner(units):
            calls.append(len(units))
            if len(calls) == 1:
                raise RuntimeError("worker lost")
            return label_runner(units)

        async def scenario():
            server, run_task = await start_server(
                tmp_path, runner=flaky_runner
            )
            reader, writer = await connect(server)
            sub = await request(
                reader, writer,
                {"op": "submit", "id": 1, "tenant": "alice", "units": UNITS},
            )
            job = await wait_job_state(
                reader, writer, sub["job_id"], ("done", "failed")
            )
            again = await request(
                reader, writer,
                {"op": "submit", "id": 2, "tenant": "alice", "units": UNITS},
            )
            rerun = await wait_job_state(
                reader, writer, again["job_id"], ("done", "failed")
            )
            stats = await request(reader, writer, {"op": "stats", "id": 3})
            await request(reader, writer, {"op": "shutdown", "id": 4})
            await run_task
            writer.close()
            return job, rerun, stats["jobs"]

        job, rerun, totals = asyncio.run(scenario())
        assert job["state"] == "failed" and job["quarantined"] == 3
        assert "worker lost" in job["quarantined_units"][0]["error"]
        assert rerun["state"] == "done" and rerun["done"] == 3
        assert calls == [3, 3]
        assert totals["units_quarantined"] == 3

    def test_status_without_id_lists_all_jobs(self, tmp_path):
        async def scenario():
            server, run_task = await start_server(tmp_path)
            reader, writer = await connect(server)
            for i, tenant in enumerate(("a", "b")):
                await request(
                    reader, writer,
                    {"op": "submit", "id": i, "tenant": tenant,
                     "units": [UNITS[i]]},
                )
            listing = await request(reader, writer, {"op": "status", "id": 9})
            assert [j["tenant"] for j in listing["jobs"]] == ["a", "b"]
            await request(reader, writer, {"op": "shutdown", "id": 10})
            await run_task
            writer.close()

        asyncio.run(scenario())

    def test_cancel_and_error_mapping(self, tmp_path):
        import threading

        gate = threading.Event()

        def gated_runner(units):
            gate.wait(timeout=5.0)
            return [u.label() for u in units]

        async def scenario():
            server, run_task = await start_server(tmp_path, gated_runner)
            reader, writer = await connect(server)
            sub = await request(
                reader, writer,
                {"op": "submit", "id": 1, "units": UNITS},
            )
            # result on a non-terminal job -> not_ready with its state.
            early = await request(
                reader, writer,
                {"op": "result", "id": 2, "job_id": sub["job_id"]},
            )
            assert early == {"id": 2, "ok": False, "error": "not_ready",
                             "state": early["state"]}
            cancel = await request(
                reader, writer,
                {"op": "cancel", "id": 3, "job_id": sub["job_id"]},
            )
            assert cancel["ok"]
            # unknown job -> bad_request.
            unknown = await request(
                reader, writer,
                {"op": "status", "id": 4, "job_id": "nope"},
            )
            assert not unknown["ok"] and unknown["error"] == "bad_request"
            # malformed submit -> bad_request.
            bad = await request(
                reader, writer,
                {"op": "submit", "id": 5,
                 "units": [{"kind": "bogus", "params": {}}]},
            )
            assert not bad["ok"] and bad["error"] == "bad_request"
            gate.set()
            await request(reader, writer, {"op": "shutdown", "id": 6})
            await run_task
            writer.close()

        asyncio.run(scenario())

    def test_tenant_quota_maps_to_overloaded(self, tmp_path):
        import threading

        gate = threading.Event()

        def gated_runner(units):
            # Quota counts PENDING units: hold execution so the greedy
            # tenant's backlog cannot drain before the over-quota submit.
            gate.wait(timeout=5.0)
            return [u.label() for u in units]

        async def scenario():
            server, run_task = await start_server(
                tmp_path, gated_runner,
                jobs_cfg=JobsConfig(tenant_quota_units=2),
            )
            reader, writer = await connect(server)
            first = await request(
                reader, writer,
                {"op": "submit", "id": 1, "tenant": "greedy",
                 "units": UNITS[:2]},
            )
            assert first["ok"]
            over = await request(
                reader, writer,
                {"op": "submit", "id": 2, "tenant": "greedy",
                 "units": UNITS[2:]},
            )
            other = await request(
                reader, writer,
                {"op": "submit", "id": 3, "tenant": "modest",
                 "units": UNITS[2:]},
            )
            gate.set()
            await request(reader, writer, {"op": "shutdown", "id": 4})
            await run_task
            writer.close()
            return over, other

        over, other = asyncio.run(scenario())
        # Over quota: a 429-style refusal with a usable retry hint...
        assert not over["ok"] and over["error"] == "overloaded"
        assert over["reason"] == "tenant_quota"
        assert over["retry_after_s"] > 0
        # ...while the other tenant's submit is entirely unaffected.
        assert other["ok"]

    def test_jobs_disabled_is_a_clean_error(self, tmp_path):
        async def scenario():
            config = ServeConfig(cache_dir=tmp_path / "cache")
            server = ServeServer(CampaignFrontEnd(config, label_runner))
            await server.start()
            run_task = asyncio.ensure_future(server.serve_until_shutdown())
            reader, writer = await connect(server)
            resp = await request(
                reader, writer, {"op": "submit", "id": 1, "units": UNITS}
            )
            await request(reader, writer, {"op": "shutdown", "id": 2})
            await run_task
            writer.close()
            return resp

        resp = asyncio.run(scenario())
        assert not resp["ok"] and resp["error"] == "bad_request"
        assert "job tier disabled" in resp["detail"]

    def test_shutdown_parks_incomplete_job_for_next_boot(self, tmp_path):
        """Shutdown with queued work journals it; a second server on the
        same journal+cache finishes the job."""

        async def boot_and_kill():
            server, run_task = await start_server(tmp_path)
            reader, writer = await connect(server)
            sub = await request(
                reader, writer,
                {"op": "submit", "id": 1, "units": UNITS},
            )
            # Shut down immediately: the job may not have dispatched.
            await request(reader, writer, {"op": "shutdown", "id": 2})
            await run_task
            writer.close()
            return sub["job_id"]

        async def boot_and_finish(job_id):
            server, run_task = await start_server(tmp_path)
            assert server.recovered is not None
            reader, writer = await connect(server)
            job = await wait_job_state(
                reader, writer, job_id, ("done", "failed")
            )
            await request(reader, writer, {"op": "shutdown", "id": 3})
            await run_task
            writer.close()
            return job

        job_id = asyncio.run(boot_and_kill())
        job = asyncio.run(boot_and_finish(job_id))
        assert job["state"] == "done" and job["done"] == 3
