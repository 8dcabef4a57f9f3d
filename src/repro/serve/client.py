"""Ring-aware cluster client: the consumer of ``locate``.

The PR-8 cluster tier measured its own ceiling honestly: every byte
flowed through the single-process router, so four backends scaled like
one (``scaling_vs_1`` ~ 1.0 in BENCH_serve.json).  Routing on the
client takes the router off the data path the way ARM-server HPC
front ends keep thin cores off theirs — the router stays the *control*
plane (topology discovery, fallback) while queries flow
client -> home shard directly.  ``locate`` returns the whole topology:
every backend's ``(host, port)`` plus the **topology epoch** (a
deterministic hash of the backend set, see
:func:`~repro.serve.router.topology_epoch`).  A bare ``repro serve``
answers the same op as a one-node topology, so the client degenerates
cleanly when pointed at a single server.

:class:`RingClient` holds the ring itself: it learns the topology once,
routes ``route_key(kind, params)`` placement with the very
:class:`~repro.serve.router.HashRing` the router uses (so client-side
placement and router-side placement can never disagree), and multiplexes
one connection per backend.  Direct queries are tagged
``"via": "direct"`` so backend stats distinguish them; the response
shape is byte-identical to the proxied path.

The fallback ladder, in order:

1. **direct** — the key's home shard over this client's own link;
2. **router** — on a link failure/timeout (or a home on failure
   cooldown), the query falls back to the router, which still proxies
   verbatim; the cluster answers even when the client's ring is wrong;
3. **re-learn** — after any fallback the client re-``locate``\\ s; a
   changed epoch (topology-version mismatch) rebuilds the ring and
   links, so stale clients converge instead of hammering dead shards.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import time
from typing import Any

from repro.serve.router import (
    DEFAULT_DOWN_COOLDOWN_S,
    DEFAULT_VNODES,
    BackendLink,
    HashRing,
    route_key,
)
from repro.serve.wire import DecodeMemo, EncodeMemo, SyncWireClient


def request_once(
    host: str,
    port: int,
    doc: dict[str, Any],
    timeout_s: float = 30.0,
    wire: str = "json",
) -> dict[str, Any]:
    """One op, one connection, one matched response (synchronous).

    The shared client primitive for one-shot CLI tools (``repro jobs``)
    and scripts: job ops are cheap and stateless per connection, so
    holding a socket buys nothing.  ``wire="binary"`` negotiates
    ``binary1`` first (one extra round-trip; a server that declines
    leaves the exchange on JSON-lines).
    """
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        client = SyncWireClient(sock)
        if wire == "binary":
            client.negotiate()
        return client.request({**doc, "id": 1})


class RingClient:
    """See the module docstring.  Lifecycle::

        client = RingClient(router_host, router_port)
        await client.connect()          # one locate: topology + epoch
        doc = await client.query(kind, params)   # direct to home shard
        ...
        await client.close()

    ``connect()`` must succeed before ``query()``; everything after
    that degrades gracefully (fallback ladder in the module docstring).
    """

    def __init__(
        self,
        router_host: str,
        router_port: int,
        vnodes: int = DEFAULT_VNODES,
        request_timeout_s: float | None = 30.0,
        down_cooldown_s: float = DEFAULT_DOWN_COOLDOWN_S,
        wire: str = "json",
    ) -> None:
        # One memo pair shared by the router link and every shard link:
        # the hot set's params/values are the same objects whichever
        # link carries them, so the caches compound instead of split.
        self.wire = wire
        self._encode_memo = EncodeMemo()
        self._decode_memo = DecodeMemo()
        self.router = BackendLink(
            "router", router_host, router_port, wire=wire,
            encode_memo=self._encode_memo, decode_memo=self._decode_memo,
        )
        self.vnodes = vnodes
        self.request_timeout_s = request_timeout_s
        self.down_cooldown_s = down_cooldown_s
        self.epoch: str | None = None
        self.ring: HashRing | None = None
        self._links: dict[str, BackendLink] = {}
        self._down_until: dict[str, float] = {}
        self.direct_queries = 0    #: answered by a home shard directly
        self.router_fallbacks = 0  #: fell back to the proxied path
        self.topology_refreshes = 0  #: locate round-trips that rebuilt state

    # -- topology ----------------------------------------------------------
    async def connect(self) -> None:
        """Learn the topology (one ``locate`` against the router)."""
        await self._refresh_topology()
        if self.ring is None:  # pragma: no cover - _adopt raises first
            raise ConnectionError("no topology learned")

    async def _refresh_topology(self) -> None:
        doc = await self.router.request(
            {"op": "locate"}, timeout_s=self.request_timeout_s
        )
        if not doc.get("ok") or not doc.get("backends"):
            raise ConnectionError(f"locate failed: {doc}")
        await self._adopt(doc["epoch"], doc["backends"])

    async def _adopt(self, epoch: Any, backends: dict[str, Any]) -> None:
        """Install a topology; a no-op when the epoch already matches."""
        if epoch == self.epoch:
            return
        old = list(self._links.values())
        self._links = {
            name: BackendLink(
                name, host, int(port), wire=self.wire,
                encode_memo=self._encode_memo,
                decode_memo=self._decode_memo,
            )
            for name, (host, port) in sorted(backends.items())
        }
        # Same construction as the router's: placement is independent
        # of order, so sorted names give the identical ring.
        self.ring = HashRing(sorted(backends), self.vnodes)
        self.epoch = epoch
        self._down_until.clear()
        self.topology_refreshes += 1
        for link in old:
            await link.close()

    def home(self, kind: str, params: dict[str, Any]) -> str:
        """The backend name owning this query's key."""
        assert self.ring is not None, "connect() first"
        return self.ring.home(route_key(kind, params))

    # -- the data path -----------------------------------------------------
    async def query(
        self, kind: str, params: dict[str, Any]
    ) -> dict[str, Any]:
        """Resolve one query through the fallback ladder; returns the
        response doc (the same bytes either path would produce, minus
        the transport's ``id``)."""
        link = self._link_for(kind, params)
        if link is not None:
            try:
                doc = await link.request(
                    {"op": "query", "kind": kind, "params": params,
                     "via": "direct"},
                    timeout_s=self.request_timeout_s,
                )
            except (ConnectionError, OSError, asyncio.TimeoutError):
                self._down_until[link.name] = (
                    time.monotonic() + self.down_cooldown_s
                )
            else:
                self.direct_queries += 1
                return doc
        return await self._fallback(kind, params)

    def _link_for(self, kind: str, params: dict[str, Any]) -> BackendLink | None:
        if self.ring is None:
            return None
        home = self.ring.home(route_key(kind, params))
        if self._down_until.get(home, 0.0) > time.monotonic():
            return None  # recently failed: skip straight to the router
        return self._links.get(home)

    async def _fallback(
        self, kind: str, params: dict[str, Any]
    ) -> dict[str, Any]:
        """The router still proxies for us, then we re-learn the
        topology: a fallback usually means our ring is stale (epoch
        mismatch) or a shard died — either way the next query should
        route on fresh state instead of repeating the detour."""
        self.router_fallbacks += 1
        doc = await self.router.request(
            {"op": "query", "kind": kind, "params": params},
            timeout_s=self.request_timeout_s,
        )
        with contextlib.suppress(Exception):
            await self._refresh_topology()
        return doc

    async def locate(
        self, kind: str, params: dict[str, Any]
    ) -> dict[str, Any]:
        """Ask the router where a key lives (refreshing our ring if the
        answer's epoch says ours is stale); returns the locate doc."""
        doc = await self.router.request(
            {"op": "locate", "kind": kind, "params": params},
            timeout_s=self.request_timeout_s,
        )
        if doc.get("ok") and doc.get("backends"):
            await self._adopt(doc["epoch"], doc["backends"])
        return doc

    def snapshot(self) -> dict[str, Any]:
        return {
            "epoch": self.epoch,
            "backends": sorted(self._links),
            "direct_queries": self.direct_queries,
            "router_fallbacks": self.router_fallbacks,
            "topology_refreshes": self.topology_refreshes,
        }

    async def close(self) -> None:
        for link in self._links.values():
            await link.close()
        await self.router.close()
