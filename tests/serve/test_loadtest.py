"""The open-loop load generator: workload determinism, end-to-end
runs against a real server, the warm hit-ratio acceptance bar, the
connection-loss hang regression, and the saturation ramp."""

import asyncio
import json

from repro.serve.frontend import CampaignFrontEnd, ServeConfig
from repro.serve.loadtest import (
    build_workload,
    format_report,
    format_saturation_report,
    run_loadtest,
    run_loadtest_fleet,
    run_saturation,
)
from repro.serve.server import ServeServer


def label_runner(units):
    return [u.label() for u in units]


async def start_server(tmp_path):
    server = ServeServer(
        CampaignFrontEnd(
            ServeConfig(cache_dir=tmp_path),
            label_runner,
        )
    )
    await server.start()
    return server, asyncio.ensure_future(server.serve_until_shutdown())


class TestWorkload:
    def test_seeded_and_reproducible(self):
        first = build_workload(50, seed=7)
        again = build_workload(50, seed=7)
        other = build_workload(50, seed=8)
        assert first == again
        assert first != other
        assert len(first) == 50

    def test_duplicate_heavy_shape(self):
        workload = build_workload(400, seed=0, hot_fraction=0.9)
        distinct = {(k, str(sorted(p.items()))) for k, p in workload}
        # 400 requests collapse onto a few dozen operating points — the
        # shape that makes coalescing + caching pay.
        assert len(distinct) < len(workload) / 5
        kinds = {k for k, _ in workload}
        assert kinds <= {"sweep_base", "sweep_point"}

    def test_hot_fraction_zero_spreads_the_load(self):
        workload = build_workload(200, seed=0, hot_fraction=0.0)
        distinct = {(k, str(sorted(p.items()))) for k, p in workload}
        assert len(distinct) > 10


class TestEndToEnd:
    def test_fleet_report_against_live_server(self, tmp_path):
        async def scenario():
            server, run_task = await start_server(tmp_path)
            report = await run_loadtest_fleet(
                "127.0.0.1", server.port,
                n_requests=120, rate=3000.0, seed=3,
                connections=2, shutdown_after=True,
            )
            await run_task
            return report

        report = asyncio.run(scenario())
        assert report["requests"] == 120
        assert report["completed"] == 120  # nothing dropped or errored
        assert report["errors"] == 0
        assert report["connections"] == 2
        assert sum(report["served"].values()) == 120
        assert 0.0 < report["hit_ratio"] <= 1.0
        assert report["p50_latency_s"] <= report["p99_latency_s"]
        assert report["throughput_rps"] > 0
        text = format_report(report)
        assert "hit ratio" in text and "p99" in text

    def test_warm_serve_hit_ratio_meets_the_bar(self, tmp_path):
        """The acceptance gate: against a warm cache the coalesce+cache
        hit ratio must reach at least 90%."""

        async def scenario():
            server, run_task = await start_server(tmp_path)
            cold = await run_loadtest_fleet(
                "127.0.0.1", server.port,
                n_requests=150, rate=3000.0, seed=5,
            )
            warm = await run_loadtest_fleet(
                "127.0.0.1", server.port,
                n_requests=150, rate=3000.0, seed=5,
                shutdown_after=True,
            )
            await run_task
            return cold, warm

        cold, warm = asyncio.run(scenario())
        assert cold["completed"] == warm["completed"] == 150
        assert warm["hit_ratio"] >= 0.9
        assert warm["served"]["computed"] == 0  # everything was known

    def test_loadtest_runs_are_reproducible(self, tmp_path):
        """Same seed, same workload: the served values must match
        request-for-request across runs (the latencies of course vary)."""

        first = build_workload(80, seed=11)
        again = build_workload(80, seed=11)
        assert first == again

        async def scenario():
            server, run_task = await start_server(tmp_path)
            a = await run_loadtest_fleet(
                "127.0.0.1", server.port, n_requests=80, rate=3000.0,
                seed=11,
            )
            b = await run_loadtest_fleet(
                "127.0.0.1", server.port, n_requests=80, rate=3000.0,
                seed=11, shutdown_after=True,
            )
            await run_task
            return a, b

        a, b = asyncio.run(scenario())
        assert a["requests"] == b["requests"] == 80
        assert a["errors"] == b["errors"] == 0

    def test_report_carries_realized_send_duration(self, tmp_path):
        """``send_wall_s`` is what run_saturation judges capacity
        against — the realized Poisson send window, not n/rate."""

        async def scenario():
            server, run_task = await start_server(tmp_path)
            report = await run_loadtest_fleet(
                "127.0.0.1", server.port,
                n_requests=60, rate=3000.0, seed=2,
                connections=2, shutdown_after=True,
            )
            await run_task
            return report

        report = asyncio.run(scenario())
        assert report["send_wall_s"] > 0
        assert report["send_wall_s"] <= report["wall_s"]


class TestConnectionLoss:
    """Regression for the loadtest hang: a server dying mid-run used to
    leave unanswered futures pending forever (the gather waited on
    responses nobody would send).  Post-fix every outstanding request
    resolves as an error and the run completes."""

    def test_server_dying_mid_run_does_not_hang(self):
        async def scenario():
            async def handle(reader, writer):
                # Answer exactly one request, then slam the door with
                # an RST (abort, not close — readline sees an
                # exception, not a clean EOF).
                line = await reader.readline()
                doc = json.loads(line)
                writer.write((json.dumps(
                    {"id": doc["id"], "ok": True, "served": "cache",
                     "value": "x", "latency_s": 0.0}
                ) + "\n").encode())
                await writer.drain()
                writer.transport.abort()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            workload = [("sweep_base", {})] * 50
            try:
                # Pre-fix this either hung (unresolved futures in the
                # gather) or leaked the raw ConnectionResetError out of
                # the send loop; the wait_for plus the report
                # assertions below cover both failure shapes.
                report = await asyncio.wait_for(
                    run_loadtest("127.0.0.1", port, workload, rate=5000.0),
                    timeout=10.0,
                )
            finally:
                server.close()
                await server.wait_closed()
            return report

        report = asyncio.run(scenario())
        assert report["requests"] == 50
        # One answer got through before the abort; everything else
        # must be accounted for as errors, not silently dropped.
        assert report["completed"] <= 1
        assert report["errors"] >= 49
        assert report["completed"] + report["errors"] == 50

    def test_fleet_survives_a_mute_server(self):
        """A server that accepts and immediately hangs up must fail the
        whole fleet run cleanly (errors == requests)."""

        async def scenario():
            async def handle(reader, writer):
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                report = await asyncio.wait_for(
                    run_loadtest_fleet(
                        "127.0.0.1", port, n_requests=40, rate=5000.0,
                        seed=1, connections=2,
                    ),
                    timeout=10.0,
                )
            finally:
                server.close()
                await server.wait_closed()
            return report

        report = asyncio.run(scenario())
        assert report["errors"] == 40
        assert report["completed"] == 0


class TestSaturation:
    def test_ramp_exhausts_on_a_fast_server(self, tmp_path):
        """Against a server it cannot outrun, the ramp runs out of
        steps: every step sustained, ceiling > 0, saturated False."""

        async def scenario():
            server, run_task = await start_server(tmp_path)
            report = await run_saturation(
                "127.0.0.1", server.port, seed=0,
                connections=2, start_rate=800.0, growth=2.0,
                step_seconds=0.1, max_steps=2, min_step_requests=40,
                p99_limit_s=5.0,
            )
            server.request_shutdown()
            await run_task
            return report

        report = asyncio.run(scenario())
        assert report["mode"] == "saturation"
        assert len(report["steps"]) == 2
        assert all(s["sustained"] for s in report["steps"])
        assert report["saturated"] is False
        assert report["max_sustainable_ops_per_s"] > 0
        for step in report["steps"]:
            assert step["realized_offered_rps"] > 0
        text = format_saturation_report(report)
        assert "max sustainable" in text
        assert "ramp exhausted" in text

    def test_rejecting_server_saturates_at_zero(self):
        """A server that sheds every request is saturated at step one
        with no sustainable rate."""

        async def scenario():
            async def handle(reader, writer):
                while True:
                    line = await reader.readline()
                    if not line:
                        break
                    doc = json.loads(line)
                    writer.write((json.dumps(
                        {"id": doc.get("id"), "ok": False,
                         "error": "overloaded", "reason": "shedding",
                         "retry_after_s": 0.01}
                    ) + "\n").encode())
                    await writer.drain()
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                report = await asyncio.wait_for(
                    run_saturation(
                        "127.0.0.1", port, connections=1,
                        start_rate=2000.0, step_seconds=0.05,
                        min_step_requests=30, max_steps=4,
                    ),
                    timeout=10.0,
                )
            finally:
                server.close()
                await server.wait_closed()
            return report

        report = asyncio.run(scenario())
        assert report["saturated"] is True
        assert len(report["steps"]) == 1  # degraded immediately
        assert report["steps"][0]["rejected"] > 0
        assert report["max_sustainable_ops_per_s"] == 0.0
        text = format_saturation_report(report)
        assert "DEGRADED" in text
