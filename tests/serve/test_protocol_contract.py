"""The JSON-lines wire protocol as a shared contract.

The router speaks the exact protocol the server does — same error
vocabulary, same shapes, proxied verbatim — so every case here runs
against BOTH endpoints through one parametrized harness.  If the
router ever reinterprets an error (or swallows ``retry_after_s``), the
same test that pins the server catches it.
"""

import asyncio
import json
import re

import pytest

from repro.parallel.units import execute_unit as run_unit
from repro.serve.frontend import CampaignFrontEnd, ServeConfig
from repro.serve.router import (
    HashRing,
    ServeRouter,
    route_key,
    topology_epoch,
)
from repro.serve.server import ServeServer
from repro.serve.wire import WireConnection, encode_doc_frame

POINT_A = {"mode": "single", "platform": "Tegra2", "freq": 1.0}
POINT_B = {"mode": "multi", "platform": "Exynos5250", "freq": 1.4}
FIG6_POINT = {"app": "HPL", "max_nodes": 96, "n": 96}
MALFORMED_HEADLINES = [{}, {"n_nodes": "96"}, {"n_nodes": True}]
LABEL_A = "sweep_point(freq=1.0,mode=single,platform=Tegra2)"

#: One representative operating point per reproduced figure.
IDENTITY_CASES = [
    ("sweep_point", POINT_A),    # figure3 (single-core sweep)
    ("sweep_point", POINT_B),    # figure4 (multi-core sweep)
    ("fig6_point", FIG6_POINT),  # figure6 (cluster scaling)
]


def canon(value):
    return json.dumps(value, sort_keys=True)


def label_runner(units):
    return [u.label() for u in units]


class Endpoint:
    """One bootable protocol endpoint: a bare server, or a router in
    front of N servers."""

    def __init__(self, kind: str, port: int, tasks, servers, router=None):
        self.kind = kind
        self.port = port
        self.tasks = tasks
        self.servers = servers
        self.router = router

    async def finish(self):
        await asyncio.gather(*self.tasks)


async def boot_endpoint(
    kind: str, tmp_path, runner=label_runner,
    binary_wire=True, backend_binary=True, backend_wire="json",
    **config_kw
) -> Endpoint:
    servers, tasks = [], []
    n = 2 if kind == "router" else 1
    for i in range(n):
        server = ServeServer(CampaignFrontEnd(
            ServeConfig(cache_dir=tmp_path / f"b{i}", **config_kw), runner
        ), binary_wire=binary_wire if kind == "server" else backend_binary)
        await server.start()
        servers.append(server)
        tasks.append(asyncio.ensure_future(server.serve_until_shutdown()))
    if kind == "server":
        return Endpoint(kind, servers[0].port, tasks, servers)
    names = [f"b{i}" for i in range(n)]
    router = ServeRouter(
        [(nm, "127.0.0.1", s.port) for nm, s in zip(names, servers)],
        binary_wire=binary_wire,
        backend_wire=backend_wire,
    )
    await router.start()
    tasks.append(asyncio.ensure_future(router.serve_until_shutdown()))
    return Endpoint(kind, router.port, tasks, servers, router)


async def connect(port):
    return await asyncio.open_connection("127.0.0.1", port)


def send(writer, doc):
    writer.write((json.dumps(doc) + "\n").encode())


async def recv(reader):
    line = await reader.readline()
    assert line, "endpoint closed the connection unexpectedly"
    return json.loads(line)


async def shutdown_endpoint(ep, reader, writer):
    send(writer, {"op": "shutdown", "id": "__bye__"})
    await writer.drain()
    while True:
        doc = await recv(reader)
        if doc.get("id") == "__bye__":
            break
    await ep.finish()
    writer.close()


ENDPOINTS = ("server", "router")


@pytest.mark.parametrize("kind", ENDPOINTS)
class TestWireContract:
    def test_malformed_frame_gets_bad_request(self, tmp_path, kind):
        async def scenario():
            ep = await boot_endpoint(kind, tmp_path)
            reader, writer = await connect(ep.port)
            writer.write(b"{not json at all\n")
            writer.write(b"[1, 2, 3]\n")  # JSON, but not an object
            await writer.drain()
            docs = [await recv(reader) for _ in range(2)]
            await shutdown_endpoint(ep, reader, writer)
            return docs

        docs = asyncio.run(scenario())
        for doc in docs:
            assert doc["ok"] is False
            assert doc["error"] == "bad_request"
            assert doc["id"] is None

    def test_unknown_op_echoes_id(self, tmp_path, kind):
        """``probe``, the deleted cache peer-fill read, is an unknown op
        too, and computes nothing."""
        async def scenario():
            ep = await boot_endpoint(kind, tmp_path)
            reader, writer = await connect(ep.port)
            send(writer, {"op": "frobnicate", "id": 17})
            send(writer, {"op": "probe", "id": 18, "kind": "sweep_point",
                          "params": POINT_A})
            await writer.drain()
            docs = [await recv(reader), await recv(reader)]
            accepted = sum(s.frontend.stats.accepted for s in ep.servers)
            await shutdown_endpoint(ep, reader, writer)
            return docs, accepted

        docs, accepted = asyncio.run(scenario())
        for doc, (rid, op) in zip(docs, [(17, "frobnicate"), (18, "probe")]):
            assert doc == {"id": rid, "ok": False, "error": "bad_request",
                           "detail": f"unknown op {op!r}"}
        assert accepted == 0

    def test_query_missing_fields(self, tmp_path, kind):
        async def scenario():
            ep = await boot_endpoint(kind, tmp_path)
            reader, writer = await connect(ep.port)
            send(writer, {"op": "query", "id": 1})
            send(writer, {"op": "query", "id": 2, "kind": "sweep_base",
                          "params": "not-an-object"})
            send(writer, {"op": "query", "id": 3, "kind": 42, "params": {}})
            await writer.drain()
            docs = {}
            for _ in range(3):
                doc = await recv(reader)
                docs[doc["id"]] = doc
            await shutdown_endpoint(ep, reader, writer)
            return docs

        docs = asyncio.run(scenario())
        for rid in (1, 2, 3):
            assert docs[rid]["error"] == "bad_request", docs[rid]

    def test_unknown_kind_maps_to_bad_request(self, tmp_path, kind):
        async def scenario():
            ep = await boot_endpoint(kind, tmp_path)
            reader, writer = await connect(ep.port)
            send(writer, {"op": "query", "id": 1, "kind": "nonsense",
                          "params": {}})
            await writer.drain()
            doc = await recv(reader)
            await shutdown_endpoint(ep, reader, writer)
            return doc

        doc = asyncio.run(scenario())
        assert doc["error"] == "bad_request"
        assert "nonsense" in doc["detail"]

    def test_duplicate_ids_get_two_answers(self, tmp_path, kind):
        """Ids are the CLIENT's correlation tokens: the endpoint must
        answer every frame, even when a client reuses an id (the
        router's internal link ids must not collide either)."""

        async def scenario():
            ep = await boot_endpoint(kind, tmp_path)
            reader, writer = await connect(ep.port)
            send(writer, {"op": "query", "id": 7, "kind": "sweep_point",
                          "params": POINT_A})
            send(writer, {"op": "query", "id": 7, "kind": "sweep_base",
                          "params": {}})
            await writer.drain()
            docs = [await recv(reader) for _ in range(2)]
            await shutdown_endpoint(ep, reader, writer)
            return docs

        docs = asyncio.run(scenario())
        assert [d["id"] for d in docs] == [7, 7]
        assert {d["value"] for d in docs} == {
            "sweep_point(freq=1.0,mode=single,platform=Tegra2)", "sweep_base()"
        }

    def test_truncated_frame_then_disconnect_is_harmless(self, tmp_path, kind):
        """A client dying mid-frame must not wedge the endpoint: the
        next connection gets full service."""

        async def scenario():
            ep = await boot_endpoint(kind, tmp_path)
            r1, w1 = await connect(ep.port)
            w1.write(b'{"op": "query", "id": 1, "kin')  # no newline, bye
            await w1.drain()
            w1.close()
            r2, w2 = await connect(ep.port)
            send(w2, {"op": "ping", "id": 2})
            await w2.drain()
            doc = await recv(r2)
            await shutdown_endpoint(ep, r2, w2)
            return doc

        assert asyncio.run(scenario()) == {"id": 2, "ok": True}

    def test_unterminated_last_line_is_answered(self, tmp_path, kind):
        """A client may close its side right after its last request,
        with no newline: that request is still answered, after the ones
        before it, and then the endpoint closes the connection."""

        async def scenario():
            ep = await boot_endpoint(kind, tmp_path)
            reader, writer = await connect(ep.port)
            writer.write(b'{"op": "ping", "id": 1}\n{"op": "locate", "id": 2}')
            writer.write_eof()
            docs = [await recv(reader) for _ in range(2)]
            closed = await asyncio.wait_for(reader.readline(), 10) == b""
            writer.close()
            r2, w2 = await connect(ep.port)
            await shutdown_endpoint(ep, r2, w2)
            return docs, closed

        docs, closed = asyncio.run(scenario())
        assert docs[0] == {"id": 1, "ok": True}
        assert docs[1]["id"] == 2 and docs[1]["ok"] is True
        assert closed

    def test_overloaded_retry_after_proxied_verbatim(self, tmp_path, kind):
        """The 429 shape — ok:false, error, reason, retry_after_s — is
        produced by the backend; a router in the path must carry every
        field through untouched."""

        async def scenario():
            # queue_limit=1 plus a runner gate: the first miss wedges
            # the queue so the second distinct miss is rejected.
            gate = asyncio.Event()
            loop_holder = {}

            def slow_runner(units):
                # Executor thread: block until the test releases it.
                fut = asyncio.run_coroutine_threadsafe(
                    gate.wait(), loop_holder["loop"]
                )
                fut.result(timeout=30)
                return [u.label() for u in units]

            ep = await boot_endpoint(
                kind, tmp_path, runner=slow_runner, queue_limit=1,
            )
            loop_holder["loop"] = asyncio.get_running_loop()
            reader, writer = await connect(ep.port)
            send(writer, {"op": "query", "id": 1, "kind": "sweep_point",
                          "params": POINT_A})
            await writer.drain()
            # Give the first query time to occupy the queue slot.
            await asyncio.sleep(0.2)
            rejected = None
            for attempt in range(2, 30):
                send(writer, {"op": "query", "id": attempt,
                              "kind": "sweep_point",
                              "params": {"mode": "multi",
                                         "platform": "Tegra3",
                                         "freq": float(attempt)}})
                await writer.drain()
                await asyncio.sleep(0.05)
            gate.set()
            docs = []
            while len(docs) < 29 - 1:
                docs.append(await recv(reader))
            await shutdown_endpoint(ep, reader, writer)
            return docs

        docs = asyncio.run(scenario())
        rejected = [d for d in docs if not d.get("ok")]
        assert rejected, "admission control never fired"
        for doc in rejected:
            assert doc["error"] == "overloaded"
            assert doc["reason"] == "overloaded"
            assert isinstance(doc["retry_after_s"], float)
            assert doc["retry_after_s"] > 0
            # The verbatim-proxy check: exactly the backend's shape,
            # no router-added or router-dropped keys.
            assert set(doc) == {"id", "ok", "error", "reason",
                                "retry_after_s"}

    def test_locate_returns_selfconsistent_topology(self, tmp_path, kind):
        """``locate`` answers the full topology plus an epoch derived
        from it — on the router AND on a bare server (which answers as
        a one-node topology, so ring clients degenerate cleanly)."""

        async def scenario():
            ep = await boot_endpoint(kind, tmp_path)
            reader, writer = await connect(ep.port)
            send(writer, {"op": "locate", "id": 5})
            await writer.drain()
            doc = await recv(reader)
            await shutdown_endpoint(ep, reader, writer)
            return doc

        doc = asyncio.run(scenario())
        assert doc["id"] == 5 and doc["ok"] is True
        backends = doc["backends"]
        assert len(backends) == (2 if kind == "router" else 1)
        for name, (host, port) in backends.items():
            assert isinstance(host, str) and isinstance(port, int)
        assert doc["epoch"] == topology_epoch(
            [(n, h, p) for n, (h, p) in backends.items()]
        )

    def test_locate_with_key_names_home(self, tmp_path, kind):
        async def scenario():
            ep = await boot_endpoint(kind, tmp_path)
            reader, writer = await connect(ep.port)
            send(writer, {"op": "locate", "id": 1, "kind": "sweep_point",
                          "params": POINT_A})
            await writer.drain()
            doc = await recv(reader)
            await shutdown_endpoint(ep, reader, writer)
            return doc

        doc = asyncio.run(scenario())
        assert doc["ok"] is True
        assert [doc["host"], doc["port"]] == doc["backends"][doc["backend"]]
        # Client-side placement must agree: the very same ring.
        expected = HashRing(sorted(doc["backends"])).home(
            route_key("sweep_point", POINT_A)
        )
        assert doc["backend"] == expected

    def test_locate_rejects_bad_key_types(self, tmp_path, kind):
        """Half a key — or ill-typed kind/params — is a ``bad_request``
        with the id echoed, same vocabulary as every other op."""

        async def scenario():
            ep = await boot_endpoint(kind, tmp_path)
            reader, writer = await connect(ep.port)
            send(writer, {"op": "locate", "id": 1, "kind": 42,
                          "params": {}})
            send(writer, {"op": "locate", "id": 2, "kind": "sweep_point",
                          "params": "not-an-object"})
            send(writer, {"op": "locate", "id": 3, "kind": "sweep_point"})
            await writer.drain()
            docs = {}
            for _ in range(3):
                doc = await recv(reader)
                docs[doc["id"]] = doc
            await shutdown_endpoint(ep, reader, writer)
            return docs

        docs = asyncio.run(scenario())
        for rid in (1, 2, 3):
            assert docs[rid]["ok"] is False, docs[rid]
            assert docs[rid]["error"] == "bad_request"

    def test_locate_duplicate_ids_get_two_answers(self, tmp_path, kind):
        async def scenario():
            ep = await boot_endpoint(kind, tmp_path)
            reader, writer = await connect(ep.port)
            send(writer, {"op": "locate", "id": 9})
            send(writer, {"op": "locate", "id": 9})
            await writer.drain()
            docs = [await recv(reader) for _ in range(2)]
            await shutdown_endpoint(ep, reader, writer)
            return docs

        docs = asyncio.run(scenario())
        assert [d["id"] for d in docs] == [9, 9]
        assert docs[0]["backends"] == docs[1]["backends"]

    def test_locate_after_truncated_frame(self, tmp_path, kind):
        """A client dying mid-frame must not wedge ``locate`` for the
        next connection."""

        async def scenario():
            ep = await boot_endpoint(kind, tmp_path)
            r1, w1 = await connect(ep.port)
            w1.write(b'{"op": "locate", "id"')  # no newline, bye
            await w1.drain()
            w1.close()
            r2, w2 = await connect(ep.port)
            send(w2, {"op": "locate", "id": 1})
            await w2.drain()
            doc = await recv(r2)
            await shutdown_endpoint(ep, r2, w2)
            return doc

        assert asyncio.run(scenario())["ok"] is True

    def test_redirect_flag(self, tmp_path, kind):
        """The removed ``redirect`` query flag is an ignored field: a
        ``"redirect": true`` query is answered with its value, byte for
        byte the plain query's answer (latency masked), on both
        endpoints."""

        async def scenario():
            ep = await boot_endpoint(kind, tmp_path)
            reader, writer = await connect(ep.port)
            plain = {"op": "query", "id": 1, "kind": "sweep_point",
                     "params": POINT_A}
            send(writer, plain)  # warm the key: both answers are hits
            await writer.drain()
            await recv(reader)
            raw = []
            for doc in (plain, {**plain, "redirect": True}):
                send(writer, doc)
                await writer.drain()
                raw.append(await reader.readline())
            await shutdown_endpoint(ep, reader, writer)
            return raw

        plain, flagged = (
            re.sub(rb'"latency_s": [^,}]+', b'"latency_s": 0', line)
            for line in asyncio.run(scenario())
        )
        assert json.loads(flagged)["value"] == LABEL_A
        assert flagged == plain

    @pytest.mark.parametrize("wire", ["json", "binary1"])
    def test_plain_ops_answer_alike(self, tmp_path, kind, wire):
        """``ping``, ``hello``, an unknown op and a job op to an endpoint
        without a job tier get the same answers from the server and the
        router, in either framing."""

        async def scenario():
            ep = await boot_endpoint(kind, tmp_path)
            conn, _ = await wire_connect(
                ep.port, negotiate=wire == "binary1"
            )
            assert conn.wire == wire
            docs = [await wire_request(conn, doc) for doc in (
                {"op": "ping", "id": 1},
                {"op": "hello", "id": 2, "wire": wire},
                {"op": "frobnicate", "id": 3},
                {"op": "status", "id": 4, "job_id": "nope"},
            )]
            await wire_shutdown(ep, conn)
            return docs

        assert asyncio.run(scenario()) == [
            {"id": 1, "ok": True},
            {"id": 2, "ok": True, "wire": wire},
            {"id": 3, "ok": False, "error": "bad_request",
             "detail": "unknown op 'frobnicate'"},
            {"id": 4, "ok": False, "error": "bad_request",
             "detail": "job tier disabled (serve --no-jobs)"},
        ]

    def test_json_lines_over_64_kib_are_answered(self, tmp_path, kind):
        """A JSON line is bounded by ``MAX_FRAME_LEN``, like a binary
        frame, on every reader: a ~93 KB ``submit`` and a query whose
        ~100 KB answer crosses a JSON backend link are answered, and the
        connection serves on.  A stream ``readline`` stops at 64 KiB:
        the request used to drop the client's connection, and the
        answer the link's read loop."""
        units = [
            {"kind": "sweep_point", "params": dict(POINT_A, freq=i / 1000)}
            for i in range(1000)
        ]
        big = "v" * 100_000
        submit = {"op": "submit", "id": 1, "tenant": "t", "units": units}

        async def scenario():
            ep = await boot_endpoint(
                kind, tmp_path, runner=lambda us: [big for _ in us]
            )
            conn, _ = await wire_connect(ep.port, negotiate=False)
            docs = [
                await asyncio.wait_for(wire_request(conn, doc), 10)
                for doc in (
                    submit,
                    {"op": "query", "id": 2, "kind": "fig6_point",
                     "params": FIG6_POINT},
                    {"op": "ping", "id": 3},
                )
            ]
            await wire_shutdown(ep, conn)
            return docs

        docs = asyncio.run(scenario())
        assert len(json.dumps(submit)) > 90_000
        assert docs[0] == {"id": 1, "ok": False, "error": "bad_request",
                           "detail": "job tier disabled (serve --no-jobs)"}
        assert docs[1]["ok"] is True and docs[1]["value"] == big
        assert docs[2] == {"id": 3, "ok": True}

    def test_hello_never_downgrades(self, tmp_path, kind):
        """A ``hello`` offering JSON on a binary1 connection is acked
        with the framing in force, binary1, and the connection stays
        binary.  It used to be acked ``"wire": "json"``."""

        async def scenario():
            ep = await boot_endpoint(kind, tmp_path)
            conn, agreed = await wire_connect(ep.port)
            assert agreed
            docs = [await wire_request(conn, doc) for doc in (
                {"op": "hello", "id": 1, "wire": "json"},
                {"op": "ping", "id": 2},
            )]
            await wire_shutdown(ep, conn)
            return docs, conn.wire

        docs, wire = asyncio.run(scenario())
        assert docs == [{"id": 1, "ok": True, "wire": "binary1"},
                        {"id": 2, "ok": True}]
        assert wire == "binary1"

    def test_malformed_headline_is_bad_request(self, tmp_path, kind):
        """Through the real execution path: a missing, string or bool
        ``n_nodes`` is the client's error on both endpoints."""

        async def scenario():
            ep = await boot_endpoint(kind, tmp_path, runner=None)
            reader, writer = await connect(ep.port)
            for rid, params in enumerate(MALFORMED_HEADLINES):
                send(writer, {"op": "query", "id": rid, "kind": "headline",
                              "params": params})
            await writer.drain()
            docs = {}
            for _ in MALFORMED_HEADLINES:
                doc = await recv(reader)
                docs[doc["id"]] = doc
            await shutdown_endpoint(ep, reader, writer)
            return docs

        docs = asyncio.run(scenario())
        for rid, params in enumerate(MALFORMED_HEADLINES):
            assert docs[rid]["ok"] is False, params
            assert docs[rid]["error"] == "bad_request", (params, docs[rid])
            assert "n_nodes" in docs[rid]["detail"]

    def test_interleaved_responses_match_by_id(self, tmp_path, kind):
        async def scenario():
            ep = await boot_endpoint(kind, tmp_path)
            reader, writer = await connect(ep.port)
            ids = list(range(20))
            for i in ids:
                send(writer, {"op": "query", "id": i, "kind": "sweep_point",
                              "params": {"mode": "single",
                                         "platform": "Tegra2",
                                         "freq": 1.0 + (i % 3)}})
            await writer.drain()
            docs = {}
            for _ in ids:
                doc = await recv(reader)
                docs[doc["id"]] = doc
            await shutdown_endpoint(ep, reader, writer)
            return docs

        docs = asyncio.run(scenario())
        assert sorted(docs) == list(range(20))
        assert all(docs[i]["ok"] for i in docs)


class TestDirectPathByteIdentity:
    """The redirect protocol's core promise: a query routed by the
    client straight to its home shard returns the exact value the
    proxied path returns, and both are the bytes of the run-unit
    oracle — one representative point per reproduced figure."""

    def test_direct_vs_proxied_vs_oracle(self, tmp_path):
        async def scenario():
            ep = await boot_endpoint("router", tmp_path, runner=None)
            reader, writer = await connect(ep.port)
            proxied = {}
            for i, (kind, params) in enumerate(IDENTITY_CASES):
                send(writer, {"op": "query", "id": i, "kind": kind,
                              "params": params})
            await writer.drain()
            for _ in IDENTITY_CASES:
                doc = await recv(reader)
                proxied[doc["id"]] = doc

            send(writer, {"op": "locate", "id": "topo"})
            await writer.drain()
            topo = await recv(reader)
            direct = {}
            for i, (kind, params) in enumerate(IDENTITY_CASES):
                home = HashRing(sorted(topo["backends"])).home(
                    route_key(kind, params)
                )
                host, port = topo["backends"][home]
                r2, w2 = await connect(port)
                send(w2, {"op": "query", "id": i, "kind": kind,
                          "params": params, "via": "direct"})
                await w2.drain()
                direct[i] = await recv(r2)
                w2.close()
            counted = sum(s.frontend.stats.direct for s in ep.servers)
            await shutdown_endpoint(ep, reader, writer)
            return proxied, direct, counted

        proxied, direct, counted = asyncio.run(scenario())
        for i, (kind, params) in enumerate(IDENTITY_CASES):
            oracle = canon(run_unit(kind, params))
            assert canon(proxied[i]["value"]) == oracle, (kind, params)
            assert canon(direct[i]["value"]) == oracle, (kind, params)
            # Same frame shape on both paths, not just the same value.
            assert set(proxied[i]) == set(direct[i])
        # The shards counted the direct traffic separately.
        assert counted == len(IDENTITY_CASES)


class TestJobHomeDown:
    """Job ops live on the boot-order-first backend; when it is down
    the router must answer a structured ``job_home_down`` (naming the
    home, with a retry hint) instead of the generic ``unavailable``."""

    def test_job_ops_to_down_home_are_structured(self, tmp_path):
        async def scenario():
            live = ServeServer(CampaignFrontEnd(
                ServeConfig(cache_dir=tmp_path / "b1"),
                label_runner,
            ))
            await live.start()
            live_task = asyncio.ensure_future(live.serve_until_shutdown())
            router = ServeRouter([
                ("b0", "127.0.0.1", 1),  # the job home: nobody there
                ("b1", "127.0.0.1", live.port),
            ])
            await router.start()
            router_task = asyncio.ensure_future(
                router.serve_until_shutdown()
            )
            reader, writer = await connect(router.port)
            reqs = [
                {"op": "submit", "id": 0, "tenant": "t",
                 "units": [{"kind": "sweep_base", "params": {}}]},
                {"op": "status", "id": 1, "job_id": "nope"},
                {"op": "result", "id": 2, "job_id": "nope"},
                {"op": "cancel", "id": 3, "job_id": "nope"},
            ]
            for req in reqs:
                send(writer, req)
            await writer.drain()
            docs = {}
            for _ in reqs:
                doc = await recv(reader)
                docs[doc["id"]] = doc
            # Queries are unaffected: they shard by key, and this key's
            # home may be either backend — served or unavailable, but
            # never job_home_down.
            send(writer, {"op": "query", "id": 9, "kind": "sweep_base",
                          "params": {}})
            await writer.drain()
            query_doc = await recv(reader)
            send(writer, {"op": "shutdown", "id": 99})
            await writer.drain()
            await asyncio.gather(router_task, live_task)
            writer.close()
            return docs, query_doc, router.job_home_down

        docs, query_doc, counter = asyncio.run(scenario())
        for rid in range(4):
            doc = docs[rid]
            assert doc["ok"] is False, doc
            assert doc["error"] == "job_home_down"
            assert doc["job_home"] == "b0"
            assert isinstance(doc["retry_after_s"], float)
            assert doc["retry_after_s"] > 0
        assert counter == 4
        assert query_doc.get("error") != "job_home_down"


async def wire_connect(port, negotiate=True):
    """A client-side :class:`WireConnection`; optionally negotiated up
    to ``binary1`` (returns whether the peer agreed)."""
    reader, writer = await connect(port)
    conn = WireConnection(reader, writer, allow_binary=False)
    agreed = await conn.negotiate() if negotiate else False
    return conn, agreed


async def wire_request(conn, doc):
    conn.write_request(doc)
    await conn.drain()
    resp = await conn.recv()
    assert resp is not None, "endpoint closed the connection unexpectedly"
    return resp


async def wire_shutdown(ep, conn):
    conn.write_request({"op": "shutdown", "id": "__bye__"})
    await conn.drain()
    while True:
        doc = await conn.recv()
        if doc is None or doc.get("id") == "__bye__":
            break
    await ep.finish()
    conn.writer.close()


@pytest.mark.parametrize("kind", ENDPOINTS)
class TestWireNegotiation:
    """The binary1 negotiation matrix, run against the server AND the
    router: every pairing of binary-preferring/JSON clients with
    binary-capable/JSON-only endpoints must end in a working session —
    the only variable is which framing carries it."""

    def test_binary_client_binary_endpoint(self, tmp_path, kind):
        async def scenario():
            ep = await boot_endpoint(kind, tmp_path)
            conn, agreed = await wire_connect(ep.port)
            doc = await wire_request(conn, {
                "op": "query", "id": 1, "kind": "sweep_point",
                "params": POINT_A,
            })
            await wire_shutdown(ep, conn)
            return agreed, conn.wire, doc

        agreed, wire, doc = asyncio.run(scenario())
        assert agreed and wire == "binary1"
        assert doc["ok"] is True
        assert doc["value"] == LABEL_A

    def test_binary_client_json_only_endpoint_downgrades(self, tmp_path, kind):
        """A binary-preferring client against a ``--wire json`` endpoint:
        the hello comes back refused (old servers answer ``bad_request``
        for the unknown op, new JSON-only ones ack ``wire: "json"``),
        the client stays on JSON-lines, and the session just works."""

        async def scenario():
            ep = await boot_endpoint(kind, tmp_path, binary_wire=False,
                                     backend_binary=False)
            conn, agreed = await wire_connect(ep.port)
            doc = await wire_request(conn, {
                "op": "query", "id": 1, "kind": "sweep_point",
                "params": POINT_A,
            })
            await wire_shutdown(ep, conn)
            return agreed, conn.wire, doc

        agreed, wire, doc = asyncio.run(scenario())
        assert not agreed and wire == "json"
        assert doc["ok"] is True
        assert doc["value"] == LABEL_A

    def test_json_client_binary_endpoint_unchanged(self, tmp_path, kind):
        """A plain JSON-lines client never sends a hello; a
        binary-capable endpoint must serve it exactly as before."""

        async def scenario():
            ep = await boot_endpoint(kind, tmp_path)
            reader, writer = await connect(ep.port)
            send(writer, {"op": "query", "id": 1, "kind": "sweep_point",
                          "params": POINT_A})
            await writer.drain()
            doc = await recv(reader)
            await shutdown_endpoint(ep, reader, writer)
            return doc

        doc = asyncio.run(scenario())
        assert doc["ok"] is True
        assert doc["value"] == LABEL_A

    def test_magic_byte_sniff_skips_the_hello(self, tmp_path, kind):
        """No JSON object can start with 0xAB, so a client may open
        blind-binary: the endpoint sniffs the first byte and answers in
        kind."""

        async def scenario():
            ep = await boot_endpoint(kind, tmp_path)
            reader, writer = await connect(ep.port)
            conn = WireConnection(reader, writer, allow_binary=False)
            conn.binary = True  # speak binary from byte one
            doc = await wire_request(conn, {
                "op": "query", "id": 1, "kind": "sweep_point",
                "params": POINT_A,
            })
            await wire_shutdown(ep, conn)
            return doc

        doc = asyncio.run(scenario())
        assert doc["ok"] is True
        assert doc["value"] == LABEL_A

    def test_corrupt_payload_is_bad_request_not_a_wedge(self, tmp_path, kind):
        """A frame whose header parses but whose payload is garbage
        consumes exactly its framed length: the endpoint answers
        ``bad_request`` and the SAME connection keeps working."""

        async def scenario():
            ep = await boot_endpoint(kind, tmp_path)
            conn, agreed = await wire_connect(ep.port)
            assert agreed
            # Valid header, undecodable payload (0xc1 is no tag).
            conn.writer.write(b"\xab\x01\x00\x00\x00\x01\xc1")
            await conn.drain()
            bad = await conn.recv()
            good = await wire_request(conn, {
                "op": "query", "id": 2, "kind": "sweep_point",
                "params": POINT_A,
            })
            await wire_shutdown(ep, conn)
            return bad, good

        bad, good = asyncio.run(scenario())
        assert bad["ok"] is False and bad["error"] == "bad_request"
        assert good["ok"] is True

    def test_broken_framing_closes_without_wedging(self, tmp_path, kind):
        """Bytes that cannot be a frame header (wrong magic) mean the
        stream can never resynchronise: the endpoint must close that
        connection — and the NEXT connection gets full service."""

        async def scenario():
            ep = await boot_endpoint(kind, tmp_path)
            conn, agreed = await wire_connect(ep.port)
            assert agreed
            conn.writer.write(b"\xff" * 8)
            await conn.drain()
            closed = await conn.recv() is None
            conn.writer.close()
            conn2, agreed2 = await wire_connect(ep.port)
            doc = await wire_request(conn2, {
                "op": "query", "id": 1, "kind": "sweep_point",
                "params": POINT_A,
            })
            await wire_shutdown(ep, conn2)
            return closed, agreed2, doc

        closed, agreed2, doc = asyncio.run(scenario())
        assert closed, "endpoint kept reading an unframed stream"
        assert agreed2 and doc["ok"] is True

    def test_truncated_binary_frame_then_disconnect(self, tmp_path, kind):
        """The binary twin of the JSON truncated-frame test: a client
        dying mid-frame must not wedge the endpoint."""

        async def scenario():
            ep = await boot_endpoint(kind, tmp_path)
            conn, agreed = await wire_connect(ep.port)
            assert agreed
            frame = encode_doc_frame({"op": "ping", "id": 1})
            conn.writer.write(frame[: len(frame) - 3])  # header, partial payload
            await conn.drain()
            conn.writer.close()
            conn2, _ = await wire_connect(ep.port)
            doc = await wire_request(conn2, {"op": "ping", "id": 2})
            await wire_shutdown(ep, conn2)
            return doc

        assert asyncio.run(scenario()) == {"id": 2, "ok": True}


class TestMixedWireCluster:
    """A cluster may be binary on one face and JSON on the other —
    in EITHER direction — and values must cross unchanged (exact float
    equality: ``canon`` is ``json.dumps`` of round-trippable reprs)."""

    @pytest.mark.parametrize("client_wire,backend_wire", [
        ("binary", "json"),    # binary client -> router -> JSON links
        ("json", "binary"),    # JSON client -> router -> binary links
        ("binary", "binary"),  # binary end to end
    ])
    def test_values_identical_across_mixed_framings(
        self, tmp_path, client_wire, backend_wire
    ):
        async def scenario():
            ep = await boot_endpoint(
                "router", tmp_path, runner=None, backend_wire=backend_wire
            )
            if client_wire == "binary":
                conn, agreed = await wire_connect(ep.port)
                assert agreed
            else:
                conn, _ = await wire_connect(ep.port, negotiate=False)
            docs = {}
            for i, (kind, params) in enumerate(IDENTITY_CASES):
                docs[i] = await wire_request(conn, {
                    "op": "query", "id": i, "kind": kind, "params": params,
                })
            links = [
                link.wire_active for link in ep.router._links.values()
                if link.wire_active != "json" or backend_wire == "json"
            ]
            await wire_shutdown(ep, conn)
            return docs, links

        docs, links = asyncio.run(scenario())
        for i, (kind, params) in enumerate(IDENTITY_CASES):
            assert docs[i]["ok"] is True, docs[i]
            assert canon(docs[i]["value"]) == canon(run_unit(kind, params))
        if backend_wire == "binary":
            assert "binary1" in links, "no backend link negotiated binary"


class TestAdvertiseHost:
    """Wildcard binds must never leak onto the wire: pre-fix,
    ``--host 0.0.0.0`` handed ring clients the unconnectable
    ``0.0.0.0:<port>`` in locate answers."""

    def test_server_on_wildcard_advertises_connectable_host(self, tmp_path):
        async def scenario():
            server = ServeServer(CampaignFrontEnd(
                ServeConfig(cache_dir=tmp_path),
                label_runner,
            ), host="0.0.0.0")
            await server.start()
            task = asyncio.ensure_future(server.serve_until_shutdown())
            reader, writer = await connect(server.port)
            send(writer, {"op": "locate", "id": 1, "kind": "sweep_point",
                          "params": POINT_A})
            send(writer, {"op": "shutdown", "id": 2})
            await writer.drain()
            docs = [await recv(reader) for _ in range(2)]
            await task
            writer.close()
            return docs[0]

        doc = asyncio.run(scenario())
        assert doc["ok"] is True
        assert doc["host"] != "0.0.0.0"
        for host, _port in doc["backends"].values():
            assert host != "0.0.0.0"

    def test_server_advertise_override_wins(self, tmp_path):
        async def scenario():
            server = ServeServer(CampaignFrontEnd(
                ServeConfig(cache_dir=tmp_path),
                label_runner,
            ), host="0.0.0.0", advertise_host="198.51.100.7")
            await server.start()
            task = asyncio.ensure_future(server.serve_until_shutdown())
            reader, writer = await connect(server.port)
            send(writer, {"op": "locate", "id": 1})
            send(writer, {"op": "shutdown", "id": 2})
            await writer.drain()
            docs = [await recv(reader) for _ in range(2)]
            await task
            writer.close()
            return docs[0]

        doc = asyncio.run(scenario())
        assert doc["backends"] == {
            name: ["198.51.100.7", port]
            for name, (_h, port) in doc["backends"].items()
        }

    def test_router_resolves_wildcard_backends(self, tmp_path):
        """Backends registered at a wildcard address (as a cluster boot
        binding 0.0.0.0 would) must be advertised at a connectable
        one in locate answers."""

        async def scenario():
            router = ServeRouter([("b0", "0.0.0.0", 45999)])
            await router.start()
            task = asyncio.ensure_future(router.serve_until_shutdown())
            reader, writer = await connect(router.port)
            send(writer, {"op": "locate", "id": 1, "kind": "sweep_point",
                          "params": POINT_A})
            send(writer, {"op": "shutdown", "id": 2})
            await writer.drain()
            docs = {}
            for _ in range(2):
                doc = await recv(reader)
                docs[doc["id"]] = doc
            await task
            writer.close()
            return docs

        docs = asyncio.run(scenario())
        for host, _port in docs[1]["backends"].values():
            assert host != "0.0.0.0"
        assert docs[1]["host"] != "0.0.0.0"


class TestDirectStatsAdmissionOnly:
    """``stats.direct`` counts queries the funnel ADMITS: pre-fix the
    counter ticked before validation, so malformed ``via: "direct"``
    frames skewed the direct-vs-proxied accounting forever."""

    def test_rejected_direct_queries_do_not_count(self, tmp_path):
        async def scenario():
            ep = await boot_endpoint("server", tmp_path)
            server = ep.servers[0]
            reader, writer = await connect(ep.port)
            # Three rejections: missing params, ill-typed kind, unknown
            # kind — all tagged via:"direct".
            send(writer, {"op": "query", "id": 1, "kind": "sweep_point",
                          "via": "direct"})
            send(writer, {"op": "query", "id": 2, "kind": 42, "params": {},
                          "via": "direct"})
            send(writer, {"op": "query", "id": 3, "kind": "nonsense",
                          "params": {}, "via": "direct"})
            await writer.drain()
            rejected = [await recv(reader) for _ in range(3)]
            after_rejects = server.frontend.stats.direct
            send(writer, {"op": "query", "id": 4, "kind": "sweep_point",
                          "params": POINT_A, "via": "direct"})
            await writer.drain()
            admitted = await recv(reader)
            after_admit = server.frontend.stats.direct
            await shutdown_endpoint(ep, reader, writer)
            return rejected, after_rejects, admitted, after_admit

        rejected, after_rejects, admitted, after_admit = asyncio.run(scenario())
        for doc in rejected:
            assert doc["error"] == "bad_request", doc
        assert after_rejects == 0, "rejected queries counted as direct"
        assert admitted["ok"] is True
        assert after_admit == 1
