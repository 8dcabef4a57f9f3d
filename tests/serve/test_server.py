"""The JSON-lines TCP transport: protocol, concurrency, graceful
shutdown.  All tests run a real server on an ephemeral localhost port
with a fake runner behind the front end."""

import asyncio
import json
import threading

from repro.serve.frontend import CampaignFrontEnd, ServeConfig
from repro.serve.server import ServeServer

POINT_A = {"mode": "single", "platform": "Tegra2", "freq": 1.0}


def label_runner(units):
    return [u.label() for u in units]


async def start_server(tmp_path=None, runner=label_runner, **config_kw):
    config_kw.setdefault("cache_dir", tmp_path)
    server = ServeServer(CampaignFrontEnd(ServeConfig(**config_kw), runner))
    await server.start()
    run_task = asyncio.ensure_future(server.serve_until_shutdown())
    return server, run_task


async def connect(server):
    return await asyncio.open_connection("127.0.0.1", server.port)


def send(writer, doc):
    writer.write((json.dumps(doc) + "\n").encode())


async def recv(reader):
    line = await reader.readline()
    assert line, "server closed the connection unexpectedly"
    return json.loads(line)


async def recv_by_id(reader, n):
    docs = {}
    for _ in range(n):
        doc = await recv(reader)
        docs[doc["id"]] = doc
    return docs


class TestProtocol:
    def test_query_stats_ping_round_trip(self, tmp_path):
        async def scenario():
            server, run_task = await start_server(tmp_path)
            reader, writer = await connect(server)
            send(writer, {"op": "ping", "id": 0})
            send(writer, {"op": "query", "id": 1, "kind": "sweep_base",
                          "params": {}})
            send(writer, {"op": "query", "id": 2, "kind": "sweep_base",
                          "params": {}})
            await writer.drain()
            docs = await recv_by_id(reader, 3)
            send(writer, {"op": "query", "id": 3, "kind": "sweep_base",
                          "params": {}})
            await writer.drain()
            docs.update(await recv_by_id(reader, 1))
            send(writer, {"op": "stats", "id": 4})
            await writer.drain()
            docs.update(await recv_by_id(reader, 1))
            send(writer, {"op": "shutdown", "id": 5})
            await writer.drain()
            docs.update(await recv_by_id(reader, 1))
            await run_task
            writer.close()
            return docs

        docs = asyncio.run(scenario())
        assert docs[0] == {"id": 0, "ok": True}
        served = {docs[1]["served"], docs[2]["served"]}
        assert served == {"computed", "coalesced"}  # same in-flight unit
        assert docs[1]["value"] == docs[2]["value"] == "sweep_base()"
        assert docs[1]["latency_s"] >= 0
        assert docs[3]["served"] == "cache"  # second round rides the disk
        assert docs[4]["stats"]["accepted"] == 3
        assert docs[4]["stats"]["hit_ratio"] > 0.5
        assert docs[5]["ok"] is True

    def test_bad_requests_get_structured_errors(self, tmp_path):
        async def scenario():
            server, run_task = await start_server(tmp_path)
            reader, writer = await connect(server)
            writer.write(b"this is not json\n")
            send(writer, {"op": "frobnicate", "id": 1})
            send(writer, {"op": "query", "id": 2, "kind": "nonsense",
                          "params": {}})
            send(writer, {"op": "query", "id": 3, "kind": "sweep_base"})
            await writer.drain()
            docs = [await recv(reader) for _ in range(4)]
            send(writer, {"op": "shutdown", "id": 4})
            await writer.drain()
            await recv(reader)
            await run_task
            writer.close()
            return docs

        docs = asyncio.run(scenario())
        assert all(doc["ok"] is False for doc in docs)
        assert all(doc["error"] == "bad_request" for doc in docs)
        details = [doc.get("detail", "") for doc in docs]
        assert "not a JSON object" in details[0]
        assert "frobnicate" in details[1]
        assert "work-unit kind" in details[2]
        assert "params" in details[3]

    def test_overload_maps_to_429_style_response(self, tmp_path):
        async def scenario():
            release = threading.Event()

            def blocking(units):
                release.wait(timeout=10)
                return [u.label() for u in units]

            server, run_task = await start_server(
                tmp_path, runner=blocking, queue_limit=1,
            )
            reader, writer = await connect(server)
            send(writer, {"op": "query", "id": 1, "kind": "sweep_base",
                          "params": {}})
            await writer.drain()
            await asyncio.sleep(0.05)  # occupy the only pending slot
            send(writer, {"op": "query", "id": 2, "kind": "sweep_point",
                          "params": POINT_A})
            await writer.drain()
            rejected = await recv(reader)
            release.set()
            accepted = await recv(reader)
            send(writer, {"op": "shutdown", "id": 3})
            await writer.drain()
            await recv(reader)
            await run_task
            writer.close()
            return rejected, accepted

        rejected, accepted = asyncio.run(scenario())
        assert rejected["id"] == 2
        assert rejected["ok"] is False
        assert rejected["error"] == "overloaded"
        assert rejected["reason"] == "overloaded"
        assert rejected["retry_after_s"] > 0
        assert accepted["id"] == 1 and accepted["ok"] is True


class TestGracefulShutdown:
    def test_shutdown_drains_inflight_none_dropped(self, tmp_path):
        """The acceptance gate: every request accepted before the
        shutdown op must still get its answer on the wire."""

        async def scenario():
            release = threading.Event()

            def blocking(units):
                release.wait(timeout=10)
                return [u.label() for u in units]

            server, run_task = await start_server(
                tmp_path, runner=blocking
            )
            reader, writer = await connect(server)
            for i, freq in enumerate((0.5, 0.8, 1.0)):
                send(writer, {"op": "query", "id": i, "kind": "sweep_point",
                              "params": {**POINT_A, "freq": freq}})
            await writer.drain()
            await asyncio.sleep(0.05)  # all three accepted, none resolved
            send(writer, {"op": "shutdown", "id": 99})
            await writer.drain()
            asyncio.get_running_loop().call_later(0.1, release.set)
            docs = await recv_by_id(reader, 4)
            await run_task  # the server exits once drained
            assert await reader.readline() == b""  # connection closed
            writer.close()
            return docs, server.frontend.stats

        docs, stats = asyncio.run(scenario())
        assert docs[99]["ok"] is True  # the shutdown ack
        for i in range(3):
            assert docs[i]["ok"] is True, docs[i]
            assert docs[i]["served"] == "computed"
        assert stats.accepted == 3 and stats.failed == 0

    def test_new_connections_refused_after_shutdown(self, tmp_path):
        async def scenario():
            server, run_task = await start_server(tmp_path)
            reader, writer = await connect(server)
            send(writer, {"op": "shutdown", "id": 0})
            await writer.drain()
            await recv(reader)
            await run_task
            writer.close()
            try:
                await asyncio.open_connection("127.0.0.1", server.port)
            except OSError:
                return True
            return False

        assert asyncio.run(scenario()) is True
