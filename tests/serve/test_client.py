"""The ring-aware client: topology learning, client-side placement,
the direct data path, and the fallback ladder back to the router."""

import asyncio
import json

import pytest

from repro.serve.client import RingClient, request_once
from repro.serve.frontend import CampaignFrontEnd, ServeConfig
from repro.serve.router import ServeRouter, route_key
from repro.serve.server import ServeServer

POINT_A = {"mode": "single", "platform": "Tegra2", "freq": 1.0}
POINT_B = {"mode": "multi", "platform": "Exynos5250", "freq": 1.4}


def label_runner(units):
    return [u.label() for u in units]


async def start_backend(cache_dir, name="serve"):
    server = ServeServer(
        CampaignFrontEnd(
            ServeConfig(cache_dir=cache_dir),
            label_runner,
        ),
        name=name,
    )
    await server.start()
    task = asyncio.ensure_future(server.serve_until_shutdown())
    return server, task


async def start_cluster(tmp_path, n=2):
    servers, tasks = [], []
    names = [f"b{i}" for i in range(n)]
    for name in names:
        server, task = await start_backend(tmp_path / name, name=name)
        servers.append(server)
        tasks.append(task)
    router = ServeRouter(
        [(nm, "127.0.0.1", s.port) for nm, s in zip(names, servers)]
    )
    await router.start()
    tasks.append(asyncio.ensure_future(router.serve_until_shutdown()))
    return router, servers, tasks


async def rpc(port, doc):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write((json.dumps(doc) + "\n").encode())
    await writer.drain()
    resp = json.loads(await reader.readline())
    writer.close()
    return resp


async def shutdown_all(router, tasks):
    await rpc(router.port, {"op": "shutdown", "id": "bye"})
    await asyncio.gather(*tasks)


class TestRequestOnce:
    def test_round_trip(self, tmp_path):
        async def boot():
            server, task = await start_backend(tmp_path)
            return server, task

        loop = asyncio.new_event_loop()
        try:
            server, task = loop.run_until_complete(boot())
            # request_once is synchronous by design (one-shot CLIs);
            # drive it from a thread so the server's loop stays live.
            doc = loop.run_until_complete(
                asyncio.to_thread(
                    request_once, "127.0.0.1", server.port,
                    {"op": "ping"},
                )
            )
            loop.run_until_complete(
                rpc(server.port, {"op": "shutdown", "id": 9})
            )
            loop.run_until_complete(task)
        finally:
            loop.close()
        assert doc == {"id": 1, "ok": True}

    def test_dead_port_raises(self):
        with pytest.raises(OSError):
            request_once("127.0.0.1", 1, {"op": "ping"}, timeout_s=0.5)


class TestRingClient:
    def test_learns_topology_and_routes_direct(self, tmp_path):
        async def scenario():
            router, servers, tasks = await start_cluster(tmp_path)
            client = RingClient("127.0.0.1", router.port)
            await client.connect()
            docs = [
                await client.query("sweep_point", POINT_A),
                await client.query("sweep_point", POINT_B),
                await client.query("sweep_base", {}),
            ]
            snap = client.snapshot()
            direct_counts = {
                s.name: s.frontend.stats.direct for s in servers
            }
            homes = [
                client.home("sweep_point", POINT_A),
                client.home("sweep_point", POINT_B),
                client.home("sweep_base", {}),
            ]
            await client.close()
            await shutdown_all(router, tasks)
            return docs, snap, direct_counts, homes, router

        docs, snap, direct_counts, homes, router = asyncio.run(scenario())
        assert all(d["ok"] for d in docs)
        assert snap["epoch"] == router.epoch
        assert snap["backends"] == ["b0", "b1"]
        assert snap["direct_queries"] == 3
        assert snap["router_fallbacks"] == 0
        # Every query landed on the shard the router would have picked,
        # and the shards counted the direct traffic.
        expected = [
            router.ring.home(route_key("sweep_point", POINT_A)),
            router.ring.home(route_key("sweep_point", POINT_B)),
            router.ring.home(route_key("sweep_base", {})),
        ]
        assert homes == expected
        assert sum(direct_counts.values()) == 3
        # The router itself never proxied a query.
        assert router.forwarded == 0

    def test_direct_value_matches_proxied_value(self, tmp_path):
        async def scenario():
            router, servers, tasks = await start_cluster(tmp_path)
            proxied = await rpc(router.port, {
                "op": "query", "id": 1,
                "kind": "sweep_point", "params": POINT_A,
            })
            client = RingClient("127.0.0.1", router.port)
            await client.connect()
            direct = await client.query("sweep_point", POINT_A)
            await client.close()
            await shutdown_all(router, tasks)
            return proxied, direct

        proxied, direct = asyncio.run(scenario())
        canon = lambda v: json.dumps(v, sort_keys=True)  # noqa: E731
        assert canon(direct["value"]) == canon(proxied["value"])

    def test_dead_home_falls_back_to_router(self, tmp_path):
        """Kill one shard: its keys fall back to the proxied path (the
        router answers ``unavailable`` — the client doesn't hang),
        the home goes on cooldown, and keys homed elsewhere still flow
        direct."""

        async def scenario():
            router, servers, tasks = await start_cluster(tmp_path)
            client = RingClient("127.0.0.1", router.port)
            await client.connect()
            # Find one point per home so we can kill selectively.
            points = [
                {"mode": m, "platform": p, "freq": f}
                for m in ("single", "multi")
                for p in ("Tegra2", "Tegra3", "Exynos4", "Exynos5250")
                for f in (1.0, 1.2)
            ]
            by_home = {}
            for params in points:
                by_home.setdefault(
                    client.home("sweep_point", params), params
                )
            assert set(by_home) == {"b0", "b1"}

            # Kill b0 (drain it directly, bypassing the router).
            victim = next(s for s in servers if s.name == "b0")
            await rpc(victim.port, {"op": "shutdown", "id": 0})

            dead_doc = await client.query("sweep_point", by_home["b0"])
            on_cooldown = "b0" in client._down_until
            live_doc = await client.query("sweep_point", by_home["b1"])
            snap = client.snapshot()
            await client.close()
            await shutdown_all(router, tasks)
            return dead_doc, on_cooldown, live_doc, snap

        dead_doc, on_cooldown, live_doc, snap = asyncio.run(scenario())
        # The fallback answered *something* structured — the proxied
        # path's verdict on a dead shard is `unavailable`.
        assert dead_doc.get("ok") or dead_doc.get("error") == "unavailable"
        assert on_cooldown
        assert live_doc["ok"] is True
        assert snap["router_fallbacks"] == 1
        assert snap["direct_queries"] >= 1

    def test_adopt_rebuilds_only_on_epoch_change(self, tmp_path):
        async def scenario():
            router, servers, tasks = await start_cluster(tmp_path)
            client = RingClient("127.0.0.1", router.port)
            await client.connect()
            refreshes_before = client.topology_refreshes
            ring_before = client.ring
            # Same epoch: a no-op (the common case after any fallback).
            await client._adopt(client.epoch, {"zz": ["127.0.0.1", 1]})
            same = (client.ring is ring_before,
                    client.topology_refreshes == refreshes_before)
            # Changed epoch: ring and links rebuilt from the new map.
            await client._adopt(
                "fresh-epoch",
                {"c0": ["127.0.0.1", 7001], "c1": ["127.0.0.1", 7002]},
            )
            rebuilt = (client.epoch, sorted(client._links),
                       client.ring.nodes,
                       client.topology_refreshes - refreshes_before)
            await client.close()
            await shutdown_all(router, tasks)
            return same, rebuilt

        same, rebuilt = asyncio.run(scenario())
        assert same == (True, True)
        epoch, links, nodes, delta = rebuilt
        assert epoch == "fresh-epoch"
        assert links == ["c0", "c1"]
        assert sorted(nodes) == ["c0", "c1"]
        assert delta == 1

    def test_degenerates_against_bare_server(self, tmp_path):
        """Pointed at a single ``repro serve``, the client learns a
        one-node topology and every query goes direct to it."""

        async def scenario():
            server, task = await start_backend(tmp_path, name="solo")
            client = RingClient("127.0.0.1", server.port)
            await client.connect()
            doc = await client.query("sweep_point", POINT_A)
            snap = client.snapshot()
            direct_count = server.frontend.stats.direct
            await client.close()
            await rpc(server.port, {"op": "shutdown", "id": 9})
            await task
            return doc, snap, direct_count

        doc, snap, direct_count = asyncio.run(scenario())
        assert doc["ok"] is True
        assert snap["backends"] == ["solo"]
        assert snap["direct_queries"] == 1
        # via="direct" reached the server twice over: once as the
        # counted stat, once as the served value.
        assert direct_count == 1
