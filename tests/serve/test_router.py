"""The cluster router: hash ring, forwarding, stats fan-in, drain —
and the byte-identity contract that values through the router (and
from any backend queried directly) are the exact bytes a
single-process server serves.
"""

import asyncio
import json

import pytest

from repro.parallel.units import execute_unit as run_unit
from repro.serve.frontend import CampaignFrontEnd, ServeConfig
from repro.serve.router import (
    HashRing,
    ServeRouter,
    route_key,
)
from repro.serve.server import ServeServer

POINT_A = {"mode": "single", "platform": "Tegra2", "freq": 1.0}
POINT_B = {"mode": "multi", "platform": "Exynos5250", "freq": 1.4}
FIG6_POINT = {"app": "HPL", "max_nodes": 96, "n": 96}


def label_runner(units):
    return [u.label() for u in units]


async def start_backend(cache_dir, runner=label_runner, **config_kw):
    config_kw.setdefault("cache_dir", cache_dir)
    server = ServeServer(CampaignFrontEnd(ServeConfig(**config_kw), runner))
    await server.start()
    run_task = asyncio.ensure_future(server.serve_until_shutdown())
    return server, run_task


async def start_cluster(tmp_path, n=2, runner=label_runner, **config_kw):
    """N backends + a router; returns
    (router, backends, tasks) — exactly the shape ``repro
    cluster-serve`` boots, minus the subprocess plumbing."""
    backends, tasks = [], []
    for i in range(n):
        server, task = await start_backend(
            tmp_path / f"b{i}", runner=runner, **config_kw
        )
        backends.append(server)
        tasks.append(task)
    names = [f"b{i}" for i in range(n)]
    router = ServeRouter(
        [(name, "127.0.0.1", s.port) for name, s in zip(names, backends)]
    )
    await router.start()
    tasks.append(asyncio.ensure_future(router.serve_until_shutdown()))
    return router, backends, tasks


async def connect(port):
    return await asyncio.open_connection("127.0.0.1", port)


def send(writer, doc):
    writer.write((json.dumps(doc) + "\n").encode())


async def recv(reader):
    line = await reader.readline()
    assert line, "connection closed unexpectedly"
    return json.loads(line)


class TestHashRing:
    def test_deterministic_and_stable(self):
        a = HashRing(["b0", "b1", "b2"])
        b = HashRing(["b2", "b0", "b1"])  # boot order must not matter
        keys = [route_key("sweep_point", {"i": i}) for i in range(200)]
        assert [a.home(k) for k in keys] == [b.home(k) for k in keys]

    def test_single_node_owns_everything(self):
        ring = HashRing(["only"])
        assert ring.home(route_key("sweep_base", {})) == "only"

    def test_balance_within_reason(self):
        ring = HashRing(["b0", "b1", "b2", "b3"])
        keys = [route_key("sweep_point", {"i": i}) for i in range(2000)]
        shares = ring.shares(keys)
        assert sum(shares.values()) == 2000
        assert min(shares.values()) > 0.5 * 2000 / 4
        assert max(shares.values()) < 2.0 * 2000 / 4

    def test_reshape_moves_few_keys(self):
        """The consistent-hashing point: adding a node remaps ~1/N of
        the keyspace, not all of it."""
        before = HashRing(["b0", "b1", "b2"])
        after = HashRing(["b0", "b1", "b2", "b3"])
        keys = [route_key("sweep_point", {"i": i}) for i in range(2000)]
        moved = sum(1 for k in keys if before.home(k) != after.home(k))
        assert 0 < moved < 2 * 2000 / 4

    def test_coalescing_keys_route_together(self):
        """Two requests the front end would coalesce must always land
        on one shard: route_key uses the same canonicalisation as the
        single-flight table."""
        assert route_key("sweep_point", {"a": 1, "b": 2}) == route_key(
            "sweep_point", {"b": 2, "a": 1}
        )

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError, match="duplicate"):
            HashRing(["b0", "b0"])


class TestRouterForwarding:
    def test_query_routes_to_home_and_answers(self, tmp_path):
        async def scenario():
            router, backends, tasks = await start_cluster(tmp_path, n=2)
            reader, writer = await connect(router.port)
            send(writer, {"op": "query", "id": 1, "kind": "sweep_point",
                          "params": POINT_A})
            send(writer, {"op": "query", "id": 2, "kind": "sweep_point",
                          "params": POINT_B})
            await writer.drain()
            docs = {}
            for _ in range(2):
                doc = await recv(reader)
                docs[doc["id"]] = doc
            send(writer, {"op": "shutdown", "id": 3})
            await writer.drain()
            ack = await recv(reader)
            await asyncio.gather(*tasks)
            writer.close()
            home_a = router.ring.home(route_key("sweep_point", POINT_A))
            stats = [b.frontend.stats for b in backends]
            return docs, ack, home_a, stats

        docs, ack, home_a, stats = asyncio.run(scenario())
        assert docs[1]["ok"] and docs[2]["ok"]
        assert docs[1]["served"] == "computed"
        assert ack["ok"] is True
        # The work landed on the ring's designated home shard(s).
        accepted = {f"b{i}": s.accepted for i, s in enumerate(stats)}
        assert accepted[home_a] >= 1

    def test_same_key_always_same_shard(self, tmp_path):
        async def scenario():
            router, backends, tasks = await start_cluster(tmp_path, n=3)
            reader, writer = await connect(router.port)
            for i in range(6):
                send(writer, {"op": "query", "id": i, "kind": "sweep_point",
                              "params": POINT_A})
            await writer.drain()
            for _ in range(6):
                await recv(reader)
            send(writer, {"op": "shutdown", "id": 99})
            await writer.drain()
            await recv(reader)
            await asyncio.gather(*tasks)
            writer.close()
            return [b.frontend.stats.accepted for b in backends]

        accepted = asyncio.run(scenario())
        # All six requests landed on exactly one backend.
        assert sorted(accepted) == [0, 0, 6]

    def test_stats_aggregates_per_backend(self, tmp_path):
        async def scenario():
            router, backends, tasks = await start_cluster(tmp_path, n=2)
            reader, writer = await connect(router.port)
            for i, params in enumerate((POINT_A, POINT_B, POINT_A)):
                send(writer, {"op": "query", "id": i, "kind": "sweep_point",
                              "params": params})
                await writer.drain()
                await recv(reader)
            send(writer, {"op": "stats", "id": 10})
            await writer.drain()
            stats = await recv(reader)
            send(writer, {"op": "shutdown", "id": 11})
            await writer.drain()
            await recv(reader)
            await asyncio.gather(*tasks)
            writer.close()
            return stats

        doc = asyncio.run(scenario())
        assert doc["ok"] is True
        assert doc["router"]["backends"] == ["b0", "b1"]
        assert doc["router"]["forwarded"] >= 3
        agg = doc["stats"]
        assert agg["accepted"] == 3
        assert set(agg["per_backend_hit_ratio"]) <= {"b0", "b1"}
        assert set(doc["backends"]) == {"b0", "b1"}

    def test_ping_and_unknown_op(self, tmp_path):
        async def scenario():
            router, backends, tasks = await start_cluster(tmp_path, n=1)
            reader, writer = await connect(router.port)
            send(writer, {"op": "ping", "id": 1})
            send(writer, {"op": "frobnicate", "id": 2})
            await writer.drain()
            docs = {}
            for _ in range(2):
                doc = await recv(reader)
                docs[doc["id"]] = doc
            send(writer, {"op": "shutdown", "id": 3})
            await writer.drain()
            await recv(reader)
            await asyncio.gather(*tasks)
            writer.close()
            return docs

        docs = asyncio.run(scenario())
        assert docs[1] == {"id": 1, "ok": True}
        assert docs[2]["error"] == "bad_request"

    def test_dead_backend_maps_to_unavailable(self, tmp_path):
        async def scenario():
            # A router pointed at a port nobody listens on.
            router = ServeRouter([("ghost", "127.0.0.1", 1)])
            await router.start()
            task = asyncio.ensure_future(router.serve_until_shutdown())
            reader, writer = await connect(router.port)
            send(writer, {"op": "query", "id": 1, "kind": "sweep_base",
                          "params": {}})
            await writer.drain()
            doc = await recv(reader)
            send(writer, {"op": "shutdown", "id": 2})
            await writer.drain()
            await recv(reader)
            await task
            writer.close()
            return doc, router.unavailable

        doc, unavailable = asyncio.run(scenario())
        assert doc["ok"] is False
        assert doc["error"] == "unavailable"
        assert doc["backend"] == "ghost"
        assert unavailable == 1

    def test_drain_rejects_new_queries(self, tmp_path):
        async def scenario():
            router, backends, tasks = await start_cluster(tmp_path, n=1)
            # Flip draining directly (the shutdown path closes the
            # listener, so a late query needs an already-open conn).
            reader, writer = await connect(router.port)
            router._draining = True
            send(writer, {"op": "query", "id": 1, "kind": "sweep_base",
                          "params": {}})
            await writer.drain()
            doc = await recv(reader)
            router._draining = False
            send(writer, {"op": "shutdown", "id": 2})
            await writer.drain()
            await recv(reader)
            await asyncio.gather(*tasks)
            writer.close()
            return doc

        doc = asyncio.run(scenario())
        assert doc["ok"] is False
        assert doc["error"] == "overloaded"
        assert doc["reason"] == "draining"
        assert doc["retry_after_s"] > 0

    def test_cluster_drain_shuts_backends_down(self, tmp_path):
        async def scenario():
            router, backends, tasks = await start_cluster(tmp_path, n=2)
            reader, writer = await connect(router.port)
            send(writer, {"op": "shutdown", "id": 1})
            await writer.drain()
            await recv(reader)
            # Every backend's serve task must complete: the router's
            # drain delivered each one a shutdown op.
            await asyncio.wait_for(asyncio.gather(*tasks), timeout=10)
            writer.close()
            return [b.frontend.draining for b in backends]

        draining = asyncio.run(scenario())
        assert all(draining)


class TestByteIdentity:
    """The acceptance contract: values served via the router (and by
    every backend queried directly) are byte-for-byte the
    single-process answer, for the unit kinds behind figure3, figure4
    and figure6."""

    CASES = [
        ("sweep_point", POINT_A),    # figure3 (single-core sweep)
        ("sweep_point", POINT_B),    # figure4 (multi-core sweep)
        ("fig6_point", FIG6_POINT),  # figure6 (cluster scaling)
    ]

    @staticmethod
    def canon(value):
        return json.dumps(value, sort_keys=True)

    def test_router_and_direct_backends_serve_identical_bytes(self, tmp_path):
        """REAL units, served three ways — direct run_unit, through the
        router, and by every backend queried directly, home or not —
        must all canonicalise to identical bytes."""

        async def scenario():
            router, backends, tasks = await start_cluster(
                tmp_path, n=2, runner=None
            )
            reader, writer = await connect(router.port)
            via_router = {}
            for i, (kind, params) in enumerate(self.CASES):
                send(writer, {"op": "query", "id": i, "kind": kind,
                              "params": params})
                await writer.drain()
                doc = await recv(reader)
                assert doc["ok"], doc
                via_router[(kind, self.canon(params))] = doc["value"]
            # Ask every backend DIRECTLY: the non-home shard computes
            # the value itself and must serve the same bytes.
            via_backend = {}
            for backend in backends:
                r2, w2 = await connect(backend.port)
                for i, (kind, params) in enumerate(self.CASES):
                    send(w2, {"op": "query", "id": i, "kind": kind,
                              "params": params})
                    await w2.drain()
                    doc = await recv(r2)
                    assert doc["ok"], doc
                    via_backend.setdefault(
                        (kind, self.canon(params)), []
                    ).append((doc["served"], doc["value"]))
                w2.close()
            send(writer, {"op": "shutdown", "id": 99})
            await writer.drain()
            await recv(reader)
            await asyncio.gather(*tasks)
            writer.close()
            return via_router, via_backend

        via_router, via_backend = asyncio.run(scenario())
        computed_off_home = 0
        for kind, params in self.CASES:
            case = (kind, self.canon(params))
            oracle = self.canon(run_unit(kind, params))
            assert self.canon(via_router[case]) == oracle
            assert len(via_backend[case]) == 2
            for served, value in via_backend[case]:
                assert self.canon(value) == oracle, (case, served)
                assert served in ("cache", "computed"), served
                computed_off_home += served == "computed"
        # Each key's non-home shard computed it locally (the home shard
        # answers from its cache after the routed query).
        assert computed_off_home == len(self.CASES)


class _StallingTransport:
    """A backend link's transport that keeps what is written; the test
    pauses and resumes the link's writing itself, as a backpressured
    socket would."""

    def __init__(self, protocol):
        self.protocol = protocol
        self.writes = []
        self.closing = False

    def set_write_buffer_limits(self, high):
        pass

    def is_closing(self):
        return self.closing

    def write(self, data):
        self.writes.append(bytes(data))

    def close(self):
        if not self.closing:
            self.closing = True
            asyncio.get_running_loop().call_soon(
                self.protocol.connection_lost, None
            )


def _stalled_link():
    """A pre-connected link whose writing is paused (its socket is
    backpressured at flush time); replies are fed to the link's own
    connection, as its transport would."""
    from repro.serve.router import BackendLink, _LinkConnection

    link = BackendLink("b0", "127.0.0.1", 1)
    conn = _LinkConnection(link)
    transport = _StallingTransport(conn)
    conn.connection_made(transport)
    conn.pause_writing()
    link._conn = conn
    return link, conn, transport


def _answer_all(conn, transport):
    """The backend's side: answer every request written so far, each
    reply one read into the link's buffer, as its transport would."""
    for data in transport.writes:
        reply = (
            json.dumps({"id": json.loads(data)["id"], "ok": True}) + "\n"
        ).encode()
        conn.get_buffer(-1)[:len(reply)] = reply
        conn.buffer_updated(len(reply))


class TestBackendLinkNoHeadOfLineBlocking:
    """A stalled flush on a link must not hold back the next request:
    pre-fix, one backpressured drain serialised every concurrent
    request on the link at SEND time — the second request could not
    even reach the write buffer until the first's drain returned."""

    def test_second_request_writes_while_first_drain_stalls(self):
        async def scenario():
            link, conn, writer = _stalled_link()
            t1 = asyncio.ensure_future(
                link.request({"op": "query", "kind": "sweep_base",
                              "params": {}})
            )
            await asyncio.sleep(0.01)
            assert len(writer.writes) == 1, "first request never sent"
            assert not t1.done(), "the first drain did not stall"
            t2 = asyncio.ensure_future(
                link.request({"op": "query", "kind": "sweep_base",
                              "params": {}})
            )
            await asyncio.sleep(0.01)
            # A read-path forward registers a callback instead.
            replies = []
            link.send({"op": "query", "kind": "sweep_base", "params": {}},
                      lambda doc, exc: replies.append((doc, exc)))
            await asyncio.sleep(0.01)
            # THE regression assertion: with the first drain stalled,
            # the later requests' bytes still reached the buffer.
            writes_while_stalled = len(writer.writes)
            conn.resume_writing()
            _answer_all(conn, writer)
            r1, r2 = await asyncio.gather(t1, t2)
            await link.close()
            return writes_while_stalled, r1, r2, replies

        writes_while_stalled, r1, r2, replies = asyncio.run(scenario())
        assert writes_while_stalled == 3, (
            "a stalled drain head-of-line-blocked the link"
        )
        assert r1["ok"] is True and r2["ok"] is True
        assert replies == [({"id": 3, "ok": True}, None)]

    def test_fix_does_not_reorder_ids(self):
        """Writing without waiting must keep id allocation and buffer
        writes atomic per request: ids on the wire appear in allocation
        order even under concurrency, and each answer reaches the
        request that carried its id."""
        async def scenario():
            link, conn, writer = _stalled_link()
            tasks = [
                asyncio.ensure_future(link.request(
                    {"op": "query", "kind": "sweep_base", "params": {}}
                ))
                for _ in range(4)
            ]
            replies, assigned = [], []
            for _ in range(4):
                assigned.append(link.send(
                    {"op": "query", "kind": "sweep_base", "params": {}},
                    lambda doc, exc: replies.append(doc["id"]),
                ))
            await asyncio.sleep(0.02)
            sent_ids = [json.loads(w)["id"] for w in writer.writes]
            conn.resume_writing()
            _answer_all(conn, writer)
            answers = await asyncio.gather(*tasks)
            await link.close()
            return sent_ids, [a["id"] for a in answers], replies, assigned

        sent_ids, answer_ids, replies, assigned = asyncio.run(scenario())
        assert sent_ids == sorted(sent_ids)
        assert len(set(sent_ids)) == 8
        assert replies == assigned
        assert sorted(answer_ids + replies) == sent_ids
