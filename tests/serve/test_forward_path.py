"""The read-path answer paths: the router forwards a ``query`` from
its client read loop with a reply callback on the backend link,
and a backend answers a hot-LRU hit, or computes a sweep miss, from its
read loop.  Neither starts a task per request, so these tests pin what
the tasks used to give: every forward is answered (link loss, timeout,
drain), buffers stay bounded when a client stops reading or sends more
than it waits for, an inline hot hit is the same answer, with the same
counters, as the task path, and a connection bursting sweep misses does
not starve another.
"""

import asyncio
import json
import re
import selectors
import socket
import struct
import threading

import pytest

from repro.core.study import MobileSoCStudy
from repro.parallel import units as units_mod
from repro.parallel.units import execute_unit
from repro.serve.frontend import CampaignFrontEnd, ServeConfig
from repro.serve.router import ServeRouter
from repro.serve.server import ServeServer
from repro.serve.wire import (
    FRAME_QRESP,
    MAGIC,
    MAX_UNANSWERED,
    WRITE_HIGH_WATER,
    SyncWireClient,
    WireConnection,
)

POINT_A = {"mode": "single", "platform": "Tegra2", "freq": 1.0}

_HEADER = struct.Struct(">BBI")


def send(writer, doc):
    writer.write((json.dumps(doc) + "\n").encode())


async def recv(reader):
    line = await asyncio.wait_for(reader.readline(), 10)
    assert line, "connection closed unexpectedly"
    return json.loads(line)


class FakeBackend:
    """A backend that holds every query until told to answer it, and
    acks ``shutdown`` at once."""

    def __init__(self):
        self.held = []        # (request doc, writer), unanswered
        self.writers = []
        self.shutdown_with_held = None

    async def start(self):
        self.server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        self.port = self.server.sockets[0].getsockname()[1]

    async def _handle(self, reader, writer):
        self.writers.append(writer)
        while True:
            line = await reader.readline()
            if not line:
                break
            doc = json.loads(line)
            if doc.get("op") == "shutdown":
                self.shutdown_with_held = len(self.held)
                send(writer, {"id": doc["id"], "ok": True})
            else:
                self.held.append((doc, writer))

    async def wait_held(self, n):
        for _ in range(500):
            if len(self.held) >= n:
                return
            await asyncio.sleep(0.01)
        raise AssertionError(f"backend saw {len(self.held)} of {n} requests")

    def answer_all(self):
        held, self.held = self.held, []
        for doc, writer in held:
            send(writer, {"id": doc["id"], "ok": True, "value": "v",
                          "served": "cache", "latency_s": 0.001})

    def drop_links(self):
        for writer in self.writers:
            writer.close()
        self.writers = []

    async def stop(self):
        self.drop_links()
        self.server.close()
        await self.server.wait_closed()


async def start_router(backend, **kw):
    router = ServeRouter([("b0", "127.0.0.1", backend.port)], **kw)
    await router.start()
    return router, asyncio.ensure_future(router.serve_until_shutdown())


async def stop_router(router, task, reader, writer):
    send(writer, {"op": "shutdown", "id": "__bye__"})
    await writer.drain()
    while (await recv(reader)).get("id") != "__bye__":
        pass
    await asyncio.wait_for(task, 10)
    writer.close()


def query(rid, params=POINT_A):
    return {"op": "query", "id": rid, "kind": "sweep_point",
            "params": params}


class TestForwardAnswersEveryRequest:
    def test_link_loss_answers_every_forward_unavailable(self):
        async def scenario():
            backend = FakeBackend()
            await backend.start()
            router, task = await start_router(backend)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", router.port
            )
            ids = ["q-1", 2, None, [3]]
            for rid in ids:
                send(writer, query(rid))
            await writer.drain()
            await backend.wait_held(len(ids))
            backend.drop_links()
            docs = [await recv(reader) for _ in ids]
            inflight = router._inflight
            await stop_router(router, task, reader, writer)
            await backend.stop()
            return ids, docs, inflight, router.unavailable

        ids, docs, inflight, unavailable = asyncio.run(scenario())
        assert sorted(map(json.dumps, (d["id"] for d in docs))) == sorted(
            map(json.dumps, ids)
        )
        for doc in docs:
            assert doc["ok"] is False
            assert doc["error"] == "unavailable"
            assert doc["backend"] == "b0"
            assert doc["detail"].startswith("ConnectionError")
        assert unavailable == len(ids)
        assert inflight == 0

    def test_forward_timeout_fires_on_an_inline_forward(self):
        async def scenario():
            backend = FakeBackend()
            await backend.start()
            router, task = await start_router(
                backend, forward_timeout_s=0.2
            )
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", router.port
            )
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            send(writer, query(5))
            await writer.drain()
            doc = await recv(reader)
            waited = loop.time() - t0
            pending = dict(router._links["b0"]._pending)
            inflight = router._inflight
            # A late answer must not produce a second response.
            backend.answer_all()
            send(writer, {"op": "ping", "id": 6})
            await writer.drain()
            after = await recv(reader)
            await stop_router(router, task, reader, writer)
            await backend.stop()
            return doc, waited, pending, inflight, after

        doc, waited, pending, inflight, after = asyncio.run(scenario())
        assert doc["id"] == 5
        assert doc["error"] == "unavailable"
        assert doc["detail"].startswith("TimeoutError")
        assert 0.2 <= waited < 5.0
        assert pending == {} and inflight == 0
        assert after == {"id": 6, "ok": True}

    def test_drain_waits_for_inline_forwards(self):
        async def scenario():
            backend = FakeBackend()
            await backend.start()
            router, task = await start_router(backend)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", router.port
            )
            send(writer, query(1))
            await writer.drain()
            await backend.wait_held(1)
            r2, w2 = await asyncio.open_connection("127.0.0.1", router.port)
            send(w2, {"op": "shutdown", "id": 2})
            await w2.drain()
            assert (await recv(r2)) == {"id": 2, "ok": True}
            await asyncio.sleep(0.1)
            waiting = not task.done()
            backend.answer_all()
            doc = await recv(reader)
            await asyncio.wait_for(task, 10)
            writer.close()
            w2.close()
            await backend.stop()
            return waiting, doc, backend.shutdown_with_held, router

        waiting, doc, held_at_shutdown, router = asyncio.run(scenario())
        assert waiting, "the drain finished with a forward in flight"
        assert doc["id"] == 1 and doc["ok"] is True
        # The backends are shut down only after the forward was answered.
        assert held_at_shutdown == 0
        assert router.forwarded == 1


def big_runner(units):
    return ["x" * 16384 for _ in units]


class TestFlowControl:
    def test_router_stops_reading_a_client_that_does_not_read(
        self, tmp_path, monkeypatch
    ):
        n = 3000

        async def scenario():
            backend = ServeServer(CampaignFrontEnd(
                ServeConfig(cache_dir=tmp_path / "b0", batch_window_s=0.001),
                big_runner,
            ))
            await backend.start()
            backend_task = asyncio.ensure_future(
                backend.serve_until_shutdown()
            )
            router = ServeRouter([("b0", "127.0.0.1", backend.port)])
            await router.start()
            task = asyncio.ensure_future(router.serve_until_shutdown())
            peak = [0]
            write = WireConnection.write_response

            def watched(self, doc):
                write(self, doc)
                if self.encode_memo is router._client_encode:
                    # A served connection writes to its transport.
                    peak[0] = max(
                        peak[0], self.writer.get_write_buffer_size()
                    )

            monkeypatch.setattr(WireConnection, "write_response", watched)
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect(("127.0.0.1", router.port))
            sock.setblocking(False)
            reader, writer = await asyncio.open_connection(sock=sock)
            writer.transport.set_write_buffer_limits(high=1 << 30)
            # A client that keeps sending and never reads.
            for start in range(0, n, 30):
                writer.write(b"".join(
                    (json.dumps(query(i)) + "\n").encode()
                    for i in range(start, min(start + 30, n))
                ))
                await asyncio.sleep(0.005)
            await asyncio.sleep(0.5)
            accepted_stalled = backend.frontend.stats.accepted
            peak_stalled = peak[0]
            docs = [await recv(reader) for _ in range(n)]
            await stop_router(router, task, reader, writer)
            await asyncio.wait_for(backend_task, 10)
            return accepted_stalled, peak_stalled, docs

        accepted_stalled, peak_stalled, docs = asyncio.run(scenario())
        assert sorted(d["id"] for d in docs) == list(range(n))
        assert all(d["ok"] and len(d["value"]) == 16384 for d in docs)
        # Unbounded, the router would have read and forwarded all n
        # and buffered ~n * 16 KiB = 48 MiB for the stalled client.
        assert accepted_stalled < n // 2
        assert WRITE_HIGH_WATER < peak_stalled < n * 16384 // 4

    @pytest.mark.parametrize("endpoint", ["server", "router"])
    def test_a_burst_read_at_once_stops_at_max_unanswered(
        self, tmp_path, endpoint
    ):
        """2,000 pipelined queries in one ``write``, never read, while
        the backend's computation is held: the write-buffer mark sees
        no answers, so only the unanswered-request bound stops the
        read loop.  Unbounded, the backend accepts all 2,000."""
        n = 2000
        gate = threading.Event()

        def gated_runner(units):
            gate.wait(30)
            return [u.label() for u in units]

        async def scenario():
            backend = ServeServer(CampaignFrontEnd(
                ServeConfig(cache_dir=tmp_path / "b0", batch_window_s=0.001,
                            queue_limit=4 * n),
                gated_runner,
            ))
            await backend.start()
            tasks = [asyncio.ensure_future(backend.serve_until_shutdown())]
            port = backend.port
            if endpoint == "router":
                router = ServeRouter([("b0", "127.0.0.1", backend.port)])
                await router.start()
                tasks.append(
                    asyncio.ensure_future(router.serve_until_shutdown())
                )
                port = router.port
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"".join(
                (json.dumps(query(i)) + "\n").encode() for i in range(n)
            ))
            # Wait until the backend stops admitting.
            stats = backend.frontend.stats
            seen = -1
            while stats.accepted != seen:
                seen = stats.accepted
                await asyncio.sleep(0.3)
            accepted_stalled = stats.accepted
            gate.set()
            docs = [await recv(reader) for _ in range(n)]
            send(writer, {"op": "shutdown", "id": "__bye__"})
            await writer.drain()
            assert (await recv(reader))["id"] == "__bye__"
            await asyncio.wait_for(asyncio.gather(*tasks), 10)
            writer.close()
            return accepted_stalled, docs

        try:
            accepted_stalled, docs = asyncio.run(scenario())
        finally:
            gate.set()
        assert accepted_stalled <= MAX_UNANSWERED
        assert sorted(d["id"] for d in docs) == list(range(n))
        assert all(d["ok"] for d in docs)


def label_runner(units):
    return [u.label() for u in units]


async def _raw_response(reader, binary):
    """One response's raw bytes with its latency masked out."""
    if not binary:
        line = await asyncio.wait_for(reader.readline(), 10)
        return re.sub(rb'"latency_s": [^,}]+', b'"latency_s": 0', line)
    header = await reader.readexactly(_HEADER.size)
    magic, ftype, length = _HEADER.unpack(header)
    assert magic == MAGIC and ftype == FRAME_QRESP
    payload = await reader.readexactly(length)
    return header + payload[:8] + bytes(8) + payload[16:]


class TestInlineHotHit:
    COUNTERS = ("accepted", "cache_hits", "hot_hits", "direct", "coalesced",
                "computed")

    def _run(self, tmp_path, inline):
        async def scenario():
            server = ServeServer(CampaignFrontEnd(
                ServeConfig(cache_dir=tmp_path, batch_window_s=0.001),
                label_runner,
            ))
            await server.start()
            task = asyncio.ensure_future(server.serve_until_shutdown())
            tasked = [0]
            answer_query = server._answer_query

            async def counted(*args):
                tasked[0] += 1
                await answer_query(*args)

            server._answer_query = counted
            if not inline:
                server._answer_hot = lambda conn, rid, req: False
            out = {}
            for binary in (False, True):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                conn = WireConnection(reader, writer, allow_binary=False)
                if binary:
                    assert await conn.negotiate()
                # Warm the key (a computed answer on the first pass).
                conn.write_request(query(0))
                await conn.drain()
                await conn.recv()
                before = server.frontend.stats.snapshot()
                tasked[0] = 0
                raw = []
                for i in range(1, 5):
                    doc = query(i)
                    if i % 2:
                        doc["via"] = "direct"
                    conn.write_request(doc)
                    await conn.drain()
                    raw.append(await _raw_response(reader, binary))
                after = server.frontend.stats.snapshot()
                out[binary] = (
                    raw,
                    {k: after[k] - before[k] for k in self.COUNTERS},
                    tasked[0],
                )
                writer.close()
            server.request_shutdown()
            await asyncio.wait_for(task, 10)
            return out

        return asyncio.run(scenario())

    def test_same_bytes_and_counters_as_the_task_path(self, tmp_path):
        inline = self._run(tmp_path / "inline", inline=True)
        tasked = self._run(tmp_path / "tasked", inline=False)
        for binary in (False, True):
            raw_i, delta_i, tasks_i = inline[binary]
            raw_t, delta_t, tasks_t = tasked[binary]
            assert raw_i == raw_t, binary
            assert delta_i == delta_t, binary
            assert delta_i == {"accepted": 4, "cache_hits": 4, "hot_hits": 4,
                               "direct": 2, "coalesced": 0, "computed": 0}
            # The inline run answered every hot hit without a task.
            assert tasks_i == 0 and tasks_t == 4
        assert inline[True][0][0][:1] == bytes([MAGIC])


async def boot_server(**config_kw):
    """A server on the real execution path (no injected runner), with
    every ``_answer_query`` task counted in ``server.tasked``."""
    server = ServeServer(CampaignFrontEnd(ServeConfig(**config_kw)))
    await server.start()
    task = asyncio.ensure_future(server.serve_until_shutdown())
    server.tasked = 0
    answer_query = server._answer_query

    async def counted(*args):
        server.tasked += 1
        await answer_query(*args)

    server._answer_query = counted
    return server, task


async def wire_client(port, wire):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    conn = WireConnection(reader, writer, allow_binary=False)
    if wire == "binary1":
        assert await conn.negotiate()
    return conn


async def ask(conn, doc):
    conn.write_request(doc)
    await conn.drain()
    return await asyncio.wait_for(conn.recv(), 10)


async def stop_server(server, task, conn):
    assert (await ask(conn, {"op": "shutdown", "id": "bye"}))["ok"]
    await asyncio.wait_for(task, 10)
    conn.writer.close()


def sweep(freq, mode="single"):
    return {"mode": mode, "platform": "Tegra2", "freq": freq}


@pytest.mark.parametrize("wire", ["json", "binary1"])
class TestSweepMissOnTheReadPath:
    @pytest.mark.parametrize("hot_values", [4096, 0])
    def test_answered_without_task_or_batch(self, tmp_path, wire, hot_values):
        """With the hot LRU on or off, a sweep miss is computed on the
        read path: no task, no batch, the run-unit oracle's value."""
        queries = [("sweep_point", sweep(0.613)),
                   ("sweep_point", sweep(1.01, "multi")),
                   ("sweep_base", {})]

        async def scenario():
            server, task = await boot_server(
                cache_dir=tmp_path, hot_values=hot_values
            )
            conn = await wire_client(server.port, wire)
            docs = [
                await ask(conn, {"op": "query", "id": i, "kind": kind,
                                 "params": params})
                for i, (kind, params) in enumerate(queries)
            ]
            tasked, stats = server.tasked, server.frontend.stats
            await stop_server(server, task, conn)
            return docs, tasked, stats

        docs, tasked, stats = asyncio.run(scenario())
        assert [(d["ok"], d["served"], d["value"]) for d in docs] == [
            (True, "computed", execute_unit(kind, params))
            for kind, params in queries
        ]
        assert tasked == 0
        assert (stats.batches, stats.computed, stats.accepted) == (0, 3, 3)

    def test_miss_while_draining_is_overloaded(self, tmp_path, wire):
        async def scenario():
            server, task = await boot_server(cache_dir=tmp_path)
            conn = await wire_client(server.port, wire)
            await server.frontend.drain()
            doc = await ask(conn, query(1, sweep(0.613)))
            await stop_server(server, task, conn)
            return doc, server.frontend.stats

        doc, stats = asyncio.run(scenario())
        assert doc["ok"] is False
        assert (doc["error"], doc["reason"]) == ("overloaded", "draining")
        assert doc["retry_after_s"] > 0
        assert (stats.rejected, stats.computed) == (1, 0)

    def test_unit_failure_is_internal_and_the_connection_serves_on(
        self, tmp_path, wire, monkeypatch
    ):
        """A failure that is not the client's (not a ``ValueError``) is
        answered ``internal``, and the next query on the same
        connection is answered as usual."""
        sweep_points = MobileSoCStudy.sweep_points

        def broken_points(self, mode, points=None):
            if any(freq == 0.555 for _, freq in points):
                raise RuntimeError("boom")
            return sweep_points(self, mode, points)

        def broken_unit(kind, params, seed=0):
            if params.get("freq") == 0.555:
                raise RuntimeError("boom")
            return execute_unit(kind, params, seed)

        monkeypatch.setattr(MobileSoCStudy, "sweep_points", broken_points)
        monkeypatch.setattr(units_mod, "execute_unit", broken_unit)

        async def scenario():
            server, task = await boot_server(cache_dir=tmp_path)
            conn = await wire_client(server.port, wire)
            bad = await ask(conn, query(1, sweep(0.555)))
            bad_direct = await ask(conn, {**query(2, sweep(0.555)),
                                          "via": "direct"})
            good = await ask(conn, query(3, sweep(0.613)))
            stats = server.frontend.stats
            await stop_server(server, task, conn)
            return bad, bad_direct, good, server.tasked, stats

        bad, bad_direct, good, tasked, stats = asyncio.run(scenario())
        for doc, rid in ((bad, 1), (bad_direct, 2)):
            assert doc == {"id": rid, "ok": False, "error": "internal",
                           "detail": "RuntimeError: boom"}
        assert good["ok"] is True and good["id"] == 3
        assert good["value"] == execute_unit("sweep_point", sweep(0.613))
        assert tasked == 0
        assert (stats.failed, stats.computed, stats.direct) == (2, 1, 1)

    def test_one_write_burst_does_not_block_another_connection(
        self, tmp_path, wire, monkeypatch
    ):
        """300 distinct sweep misses in one ``write`` on connection A
        are read without waiting for the peer; a ``ping`` on B, sent
        once A's first answer is back, is answered before A's last
        answer.  The order is the server's write order: client and
        server share one event loop here."""
        n = 300
        written = []
        write_query_response = WireConnection.write_query_response
        write_response = WireConnection.write_response

        def log_answer(self, rid, *args):
            written.append(rid)
            write_query_response(self, rid, *args)

        def log_response(self, doc):
            written.append(doc.get("id"))
            write_response(self, doc)

        monkeypatch.setattr(
            WireConnection, "write_query_response", log_answer
        )
        monkeypatch.setattr(WireConnection, "write_response", log_response)

        async def scenario():
            server, task = await boot_server(cache_dir=tmp_path)
            a = await wire_client(server.port, wire)
            b = await wire_client(server.port, wire)
            a.writer.write(b"".join(
                a._request_bytes(query(i, sweep(0.5 + i / 1000)))
                for i in range(n)
            ))
            await a.drain()
            docs = [await asyncio.wait_for(a.recv(), 10)]
            assert (await ask(b, {"op": "ping", "id": "b"}))["ok"]
            for _ in range(n - 1):
                docs.append(await asyncio.wait_for(a.recv(), 10))
            b.writer.close()
            await stop_server(server, task, a)
            return docs, server.tasked

        docs, tasked = asyncio.run(scenario())
        assert all(doc["ok"] for doc in docs)
        assert sorted(doc["id"] for doc in docs) == list(range(n))
        assert tasked == 0
        answers_a = [i for i, rid in enumerate(written) if rid in range(n)]
        assert written.index("b") < answers_a[-1]


class _CountingSelector(selectors.DefaultSelector):
    """Counts event-loop turns: one ``select`` call per turn."""

    turns = 0

    def select(self, timeout=None):
        ready = super().select(timeout)
        self.turns += 1
        return ready


class _LoopThread:
    """An event loop of its own on a thread, its turns counted."""

    def __init__(self):
        self.selector = _CountingSelector()
        self.loop = asyncio.SelectorEventLoop(self.selector)
        self.thread = threading.Thread(target=self.loop.run_forever)
        self.thread.start()

    def run(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def stop(self):
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        assert not self.thread.is_alive(), "event loop did not stop"
        self.loop.close()


@pytest.mark.parametrize("wire", ["json", "binary1"])
class TestOneLoopTurnPerPacket:
    """On an idle connection a packet costs its reader one event-loop
    turn: the request is parsed, dispatched and, on the read path,
    answered in the callback that read it.  Over asyncio streams each
    packet took two turns: one to wake the reader task's future, one
    to run the task."""

    N = 20

    def _turns_per_request(self, port, selector, wire):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            client = SyncWireClient(sock)
            if wire == "binary1":
                assert client.negotiate()
            # The first query computes the value (and connects a link).
            assert client.request(query(0))["ok"]
            turns = []
            for i in range(1, self.N + 1):
                before = selector.turns
                doc = client.request(query(i))
                turns.append(selector.turns - before)
                assert doc["ok"] and doc["served"] == "cache", doc
            assert client.request({"op": "shutdown", "id": "bye"})["ok"]
        return turns

    def test_a_hot_hit_costs_one_turn(self, tmp_path, wire):
        server_loop = _LoopThread()

        async def boot():
            server = ServeServer(CampaignFrontEnd(ServeConfig(
                cache_dir=tmp_path
            )))
            await server.start()
            return server

        try:
            server = server_loop.run(boot()).result(10)
            done = server_loop.run(server.serve_until_shutdown())
            turns = self._turns_per_request(
                server.port, server_loop.selector, wire
            )
            done.result(10)
        finally:
            server_loop.stop()
        assert turns == [1] * self.N

    def test_a_forward_costs_one_turn_per_packet(self, tmp_path, wire):
        """Request in from the client, then the answer in from the
        link: two packets, two router turns."""
        backend_loop, router_loop = _LoopThread(), _LoopThread()

        async def boot_backend():
            server = ServeServer(CampaignFrontEnd(ServeConfig(
                cache_dir=tmp_path
            )))
            await server.start()
            return server

        async def boot_router(port):
            router = ServeRouter(
                [("b0", "127.0.0.1", port)],
                backend_wire="binary" if wire == "binary1" else "json",
            )
            await router.start()
            return router

        try:
            backend = backend_loop.run(boot_backend()).result(10)
            backend_done = backend_loop.run(backend.serve_until_shutdown())
            router = router_loop.run(boot_router(backend.port)).result(10)
            router_done = router_loop.run(router.serve_until_shutdown())
            turns = self._turns_per_request(
                router.port, router_loop.selector, wire
            )
            router_done.result(10)
            backend_done.result(10)
        finally:
            router_loop.stop()
            backend_loop.stop()
        assert turns == [2] * self.N
