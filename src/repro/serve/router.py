"""Sharded cluster serving: the consistent-hash router.

The cluster tier scales ``repro serve`` horizontally without giving up
the single-process tier's cache economics:

* :class:`HashRing` — consistent hashing of campaign keys
  (``kind`` + canonically-serialised ``params``) over the backend set,
  with virtual nodes for balance.  Every key has exactly one *home*
  shard, so the hot set partitions cleanly: each backend's cache and
  single-flight table see only their slice, and warm hit ratios match
  the single-process tier instead of dividing by N.

* :class:`ServeRouter` — a front door speaking the same protocol as
  :class:`~repro.serve.server.ServeServer`, JSON-lines by default with
  the same per-connection ``binary1`` negotiation
  (:mod:`repro.serve.wire`) on both its faces: clients may go binary
  towards the router, and the router's backend links may go binary
  towards the shards, independently.  A ``query`` forwards to the
  key's home shard over one multiplexed connection per backend
  (:class:`BackendLink`), straight from the callback that read it off
  the client connection, and the link's own read callback writes the
  answer back through a reply callback; the backend's response is proxied verbatim (only
  the ``id`` is remapped, and the framing re-encoded for the client's
  negotiated wire), so the serving skin — values, ``served``, error
  shapes, ``retry_after_s`` — is byte-identical to talking to the
  backend directly.  Job ops are answered here, exactly as a
  ``--no-jobs`` backend answers them: the cluster's backends run no
  job tier, so there is nowhere to forward them.  ``stats`` fans in
  per-backend snapshots plus an ``aggregate`` rollup; ``shutdown``
  drains the whole cluster: the router stops admitting
  (``overloaded``/``reason="draining"``), awaits its in-flight
  forwards, then shuts each backend down in boot order.

Nothing here touches values: the forward path moves the backend's
answer through unchanged, which is what the byte-identity acceptance
tests pin down.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import hashlib
import json
import socket
from typing import Any, Awaitable, Callable

from repro.serve.wire import (
    HELLO_LINE,
    WRITE_HIGH_WATER,
    BadFrame,
    DecodeMemo,
    EncodeMemo,
    ReadBuffer,
    ServedConnection,
    WireConnection,
    WireEndpoint,
    WireError,
    hello_accepted,
)

#: Virtual nodes per backend on the ring.  64 keeps the max/min key
#: share within ~20% for small clusters while hashing stays negligible.
DEFAULT_VNODES = 64

#: After a failure a shard is skipped for this long — a dead shard
#: must not put a connect-timeout on every request's path.
DEFAULT_DOWN_COOLDOWN_S = 1.0


def route_key(kind: str, params: dict[str, Any]) -> str:
    """The cluster routing key for one campaign query.

    Exactly the canonicalisation the front end's single-flight table
    uses (``json.dumps(..., sort_keys=True)``), so two requests that
    would coalesce in one process always route to the same shard.
    """
    return f"{kind}|{json.dumps(params, sort_keys=True)}"


def advertised_host(bind_host: str, override: str | None = None) -> str:
    """The peer-reachable address to put on the wire for ``bind_host``.

    A concrete bind address advertises itself.  A wildcard bind
    (``0.0.0.0``/``::``/empty) is *never* connectable — pre-fix, locate
    answers handed ring clients ``0.0.0.0:<port>`` — so it
    resolves to this machine's primary outbound address via a
    connected UDP socket (no packet is sent), falling back to loopback
    on machines with no route at all.  ``override`` (the
    ``--advertise-host`` flag) wins unconditionally: only the operator
    knows the right answer across NAT.
    """
    if override:
        return override
    if bind_host not in ("", "0.0.0.0", "::"):
        return bind_host
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        probe.connect(("10.255.255.255", 1))
        addr = probe.getsockname()[0]
    except OSError:
        addr = "127.0.0.1"
    finally:
        probe.close()
    return addr if addr and not addr.startswith("0.") else "127.0.0.1"


def _ring_hash(material: str) -> int:
    digest = hashlib.sha256(material.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def topology_epoch(backends: list[tuple[str, str, int]]) -> str:
    """A version tag for one cluster topology.

    Deterministic over the backend set (order-independent, like ring
    placement): every ``locate`` answer carries it, so a
    client holding a stale ring can detect the mismatch and re-learn
    the topology instead of querying the wrong home shard forever.
    """
    material = ",".join(
        sorted(f"{name}={host}:{port}" for name, host, port in backends)
    )
    return hashlib.sha256(material.encode()).hexdigest()[:12]


class HashRing:
    """Consistent hashing with virtual nodes.

    :param nodes: backend names, in boot order.  Order does not affect
        placement (the ring is hash-ordered) but duplicates are
        rejected — two backends with one name would merge on the ring.
    :param vnodes: virtual nodes per backend.
    """

    def __init__(self, nodes: list[str], vnodes: int = DEFAULT_VNODES) -> None:
        if not nodes:
            raise ValueError("HashRing needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"duplicate node names: {nodes}")
        if vnodes < 1:
            raise ValueError("vnodes must be at least 1")
        self.nodes = list(nodes)
        self.vnodes = vnodes
        points: list[tuple[int, str]] = []
        for node in nodes:
            for i in range(vnodes):
                points.append((_ring_hash(f"{node}#{i}"), node))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [n for _, n in points]

    def home(self, key: str) -> str:
        """The backend name owning ``key``."""
        h = _ring_hash(key)
        idx = bisect.bisect_right(self._hashes, h) % len(self._hashes)
        return self._owners[idx]

    def shares(self, sample_keys: list[str]) -> dict[str, int]:
        """How many of ``sample_keys`` each node owns (balance probe)."""
        shares = {node: 0 for node in self.nodes}
        for key in sample_keys:
            shares[self.home(key)] += 1
        return shares


#: A reply callback: ``(reply doc, None)`` on an answer, ``(None, exc)``
#: on link loss or timeout.  It runs in the link's read callback, so
#: it must not block and must not raise.
ReplyCallback = Callable[[dict[str, Any] | None, Exception | None], None]


class _LinkConnection(WireConnection, ReadBuffer):
    """A backend link's connection: :meth:`buffer_updated` parses every
    reply in the bytes just read and hands each to its callback in the
    same callback, so a forward's answer costs the router one loop
    turn."""

    def __init__(self, link: BackendLink) -> None:
        super().__init__(
            None, None, allow_binary=False,
            encode_memo=link._encode_memo, decode_memo=link._decode_memo,
        )
        self.link = link
        loop = asyncio.get_running_loop()
        self.closed = loop.create_future()
        self._ack: asyncio.Future | None = None
        #: While the write buffer is over the mark: done once it drained.
        self.writable: asyncio.Future | None = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.writer = transport
        transport.set_write_buffer_limits(high=WRITE_HIGH_WATER)

    async def negotiate(self) -> bool:
        self._ack = asyncio.get_running_loop().create_future()
        self.writer.write(HELLO_LINE)
        return await self._ack

    def buffer_updated(self, nbytes: int) -> None:
        parser = self.parser
        parser.feed(self._read_buf[:nbytes])
        try:
            while (doc := parser.next()) is not None:
                ack = self._ack
                if ack is None:
                    self.link._reply(doc)
                else:
                    # Flipped before the bytes after the ack are parsed.
                    self._ack = None
                    self.binary = hello_accepted(doc)
                    ack.set_result(self.binary)
        except (BadFrame, WireError) as exc:
            self._lose(f"undecodable frame ({exc})")

    def eof_received(self) -> None:
        self._lose("EOF")

    def connection_lost(self, exc: Exception | None) -> None:
        self._lose("link closed")
        self.resume_writing()
        self.closed.set_result(None)

    def pause_writing(self) -> None:
        self.writable = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        writable, self.writable = self.writable, None
        if writable is not None:
            writable.set_result(None)

    def _lose(self, why: str) -> None:
        exc = ConnectionError(f"backend {self.link.name}: {why}")
        ack, self._ack = self._ack, None
        if ack is not None:
            ack.set_exception(exc)
        self.link._fail_outstanding(exc, self)
        self.writer.close()


class BackendLink:
    """One multiplexed connection to one backend.

    Requests from many router connections share this link; responses
    are matched back by an internal id (the caller's wire id never
    travels on the link, so concurrent clients reusing ids cannot
    collide).  One table holds a reply callback per outstanding id:
    :meth:`send` writes a request and registers its callback, and the
    link's connection calls it with the reply, from the callback that
    read it.  A link failure calls every outstanding callback with
    ``ConnectionError``; the next :meth:`connect` reconnects.
    :meth:`request` is the awaitable form over the same table.

    ``wire="binary"`` negotiates the ``binary1`` framing on connect; a
    peer that declines leaves the link on JSON-lines — the downgrade is
    silent by design, so a mixed cluster keeps working.
    """

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        wire: str = "json",
        encode_memo: EncodeMemo | None = None,
        decode_memo: DecodeMemo | None = None,
    ) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.wire = wire
        self._encode_memo = encode_memo
        self._decode_memo = decode_memo
        self._conn: _LinkConnection | None = None
        self._connect_lock = asyncio.Lock()
        self._next_id = 0
        #: link id -> (reply callback, its timeout handle or None)
        self._pending: dict[
            int, tuple[ReplyCallback, asyncio.TimerHandle | None]
        ] = {}

    @property
    def wire_active(self) -> str:
        """The framing this link actually negotiated (``"json"`` until
        connected, or after a downgrade)."""
        conn = self._conn
        return conn.wire if conn is not None else "json"

    @property
    def connected(self) -> bool:
        conn = self._conn
        return conn is not None and not conn.writer.is_closing()

    async def connect(self) -> None:
        """Open the link if it is not open; concurrent callers share one
        attempt.  Raises ``ConnectionError``/``OSError`` on failure."""
        if self.connected:
            return
        async with self._connect_lock:
            if self.connected:
                return
            _, conn = await asyncio.get_running_loop().create_connection(
                lambda: _LinkConnection(self), self.host, self.port
            )
            if self.wire == "binary":
                # Negotiation runs before any request is sent, so the
                # ack cannot race a request's response.
                try:
                    await conn.negotiate()
                except BaseException:
                    conn.writer.close()
                    raise
            self._conn = conn

    def _reply(self, doc: dict[str, Any]) -> None:
        entry = self._pending.pop(doc.get("id"), None)
        if entry is not None:
            callback, timer = entry
            if timer is not None:
                timer.cancel()
            callback(doc, None)

    def _fail_outstanding(
        self, exc: Exception, conn: _LinkConnection | None = None
    ) -> None:
        """Drop the connection and fail every outstanding request.
        With ``conn``, only if it is still the live connection: an old
        connection closing late must not fail requests sent on its
        successor (they were all failed when it was dropped)."""
        if conn is not None and conn is not self._conn:
            return
        if self._conn is not None:
            self._conn.writer.close()
            self._conn = None
        pending, self._pending = self._pending, {}
        for callback, timer in pending.values():
            if timer is not None:
                timer.cancel()
            callback(None, exc)

    def send(
        self,
        doc: dict[str, Any],
        callback: ReplyCallback,
        timeout_s: float | None = None,
    ) -> int:
        """Write ``doc`` (its ``id`` is overwritten) without waiting and
        register ``callback`` for the answer; returns the link id.  Past
        ``timeout_s`` the callback gets ``asyncio.TimeoutError``.  On a
        link that is not connected, or a failed write, it gets
        ``ConnectionError`` before this returns."""
        self._next_id += 1
        link_id = self._next_id
        conn = self._conn
        if conn is None:
            callback(None, ConnectionError(
                f"backend {self.name}: not connected"
            ))
            return link_id
        timer = None
        if timeout_s is not None:
            timer = asyncio.get_running_loop().call_later(
                timeout_s, self._expire, link_id, timeout_s
            )
        self._pending[link_id] = (callback, timer)
        wire_doc = dict(doc)
        wire_doc["id"] = link_id
        try:
            conn.write_request(wire_doc)
        except (ConnectionError, OSError) as exc:
            self._fail_outstanding(ConnectionError(
                f"backend {self.name}: send failed: {exc}"
            ))
        return link_id

    def _expire(self, link_id: int, timeout_s: float) -> None:
        entry = self._pending.pop(link_id, None)
        if entry is not None:
            entry[0](None, asyncio.TimeoutError(
                f"backend {self.name}: no answer within {timeout_s} s"
            ))

    def _forget(self, link_id: int) -> None:
        entry = self._pending.pop(link_id, None)
        if entry is not None and entry[1] is not None:
            entry[1].cancel()

    def wait_writable(self) -> Awaitable[None] | None:
        """Flow control for :meth:`send`: ``None`` while the link holds
        at most :data:`~repro.serve.wire.WRITE_HIGH_WATER` unsent bytes,
        else an awaitable done once it has drained."""
        conn = self._conn
        if conn is None or conn.writable is None:
            return None
        return asyncio.shield(conn.writable)

    async def request(
        self, doc: dict[str, Any], timeout_s: float | None = None
    ) -> dict[str, Any]:
        """Send ``doc`` (its ``id`` is overwritten) and await the
        matching response.  Raises ``ConnectionError`` on link loss and
        ``asyncio.TimeoutError`` past ``timeout_s``."""
        await self.connect()
        fut: asyncio.Future = asyncio.get_running_loop().create_future()

        def settle(reply: dict[str, Any] | None, exc: Exception | None) -> None:
            if fut.done():
                return
            if exc is not None:
                fut.set_exception(exc)
            else:
                fut.set_result(reply)

        link_id = self.send(doc, settle, timeout_s)
        try:
            writable = self.wait_writable()
            if writable is not None:
                await writable
            return await fut
        finally:
            self._forget(link_id)

    async def close(self) -> None:
        conn = self._conn
        if conn is not None:
            conn.writer.close()
            await conn.closed
        self._fail_outstanding(ConnectionError(f"backend {self.name}: closed"))


class ServeRouter(WireEndpoint):
    """The cluster front door; see the module docstring.

    :param backends: ``(name, host, port)`` per backend, in boot order
        (drain shuts them down in this order).  Wildcard backend hosts
        are mapped through :func:`advertised_host` once, here, so every
        consumer of ``self.backends`` — locate answers, the topology
        epoch, the links themselves — sees a connectable address.
    :param binary_wire: accept ``binary1`` negotiation from clients.
    :param backend_wire: framing for the backend links (``"json"`` or
        ``"binary"``); backends that decline silently stay on JSON.
    """

    def __init__(
        self,
        backends: list[tuple[str, str, int]],
        host: str = "127.0.0.1",
        port: int = 0,
        vnodes: int = DEFAULT_VNODES,
        forward_timeout_s: float | None = None,
        binary_wire: bool = True,
        backend_wire: str = "json",
        advertise_host: str | None = None,
    ) -> None:
        if not backends:
            raise ValueError("ServeRouter needs at least one backend")
        # Client-side decoded params are stable objects (same blob ->
        # same dict), so the link-side EncodeMemo hits on the forward;
        # link-side decoded values are stable, so the client-side
        # EncodeMemo hits on the re-framed response.
        super().__init__(host, port, binary_wire, client_decode=DecodeMemo())
        self.backends = [
            (name, advertised_host(bhost, advertise_host), bport)
            for name, bhost, bport in backends
        ]
        self.forward_timeout_s = forward_timeout_s
        self.backend_wire = backend_wire
        self.epoch = topology_epoch(self.backends)
        self.ring = HashRing([name for name, _, _ in backends], vnodes)
        self._link_encode = EncodeMemo()
        self._link_decode = DecodeMemo()
        self._links = {
            name: BackendLink(
                name, bhost, bport, wire=backend_wire,
                encode_memo=self._link_encode,
                decode_memo=self._link_decode,
            )
            for name, bhost, bport in self.backends
        }
        self._ops["stats"] = self._answer_stats
        self._draining = False
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self.forwarded = 0       #: queries forwarded to a shard
        self.unavailable = 0     #: forwards that died on a link failure
        self.rejected_draining = 0

    # -- lifecycle ---------------------------------------------------------
    async def _drain(self) -> None:
        """Drain the cluster: stop admitting (new queries get
        ``overloaded``/``draining``), await in-flight forwards, shut
        each backend down in boot order, close every link."""
        self._draining = True
        await self._idle.wait()
        for name, _, _ in self.backends:
            with contextlib.suppress(Exception):
                await self._links[name].request({"op": "shutdown"})
        for link in self._links.values():
            await link.close()

    def _track(self, delta: int) -> None:
        self._inflight += delta
        if self._inflight == 0:
            self._idle.set()
        else:
            self._idle.clear()

    # -- queries -----------------------------------------------------------
    def _home_of(self, kind: str, params: dict[str, Any]) -> str:
        return self.ring.home(route_key(kind, params))

    def _query(
        self, conn: ServedConnection, rid: Any, req: dict[str, Any]
    ) -> Awaitable[None] | None:
        """Forwarded from the read path: the home shard's answer is
        written from the link's read callback, so one slow shard does
        not serialise this connection.  Reading waits only while the
        link holds more than its write-buffer mark (or is connecting).
        A draining router answers here."""
        if self._draining:
            self.rejected_draining += 1
            conn.write_response(
                {"id": rid, "ok": False, "error": "overloaded",
                 "reason": "draining", "retry_after_s": 1.0},
            )
            return None
        link = self._links[self._home_of(req["kind"], req["params"])]
        if not link.connected:
            return self._connect_and_forward(conn, rid, req, link)
        return self._forward_inline(conn, rid, req, link)

    async def _connect_and_forward(
        self,
        conn: ServedConnection,
        rid: Any,
        req: dict[str, Any],
        link: BackendLink,
    ) -> None:
        try:
            await link.connect()
        except (ConnectionError, OSError) as exc:
            self.unavailable += 1
            conn.write_response(_unavailable_doc(rid, link.name, exc))
            return
        writable = self._forward_inline(conn, rid, req, link)
        if writable is not None:
            await writable

    def _forward_inline(
        self,
        conn: ServedConnection,
        rid: Any,
        req: dict[str, Any],
        link: BackendLink,
    ) -> Awaitable[None] | None:
        """Send ``req`` on ``link``; its reply callback writes the
        backend's answer VERBATIM except for the id (remapped back to
        the caller's) — values, ``served``, error shapes and
        ``retry_after_s`` all pass through untouched, re-framed on the
        QRESP fast path when the client negotiated binary.  That is the
        byte-identity contract.  Returns the link's flow control."""
        self._track(+1)
        conn.add()

        def answer(doc: dict[str, Any] | None, exc: Exception | None) -> None:
            if exc is not None:
                self.unavailable += 1
                doc = _unavailable_doc(rid, link.name, exc)
            else:
                self.forwarded += 1
                doc["id"] = rid  # a fresh decoded doc: nobody else holds it
            conn.write_response(doc)
            conn.done()
            self._track(-1)

        link.send(req, answer, self.forward_timeout_s)
        return link.wait_writable()

    async def _answer_stats(
        self, rid: Any, req: dict[str, Any]
    ) -> dict[str, Any]:
        """Own counters + per-backend snapshots + an aggregate rollup."""
        per_backend: dict[str, Any] = {}
        agg = {
            "accepted": 0, "rejected": 0, "cache_hits": 0,
            "coalesced": 0, "computed": 0, "failed": 0, "direct": 0,
        }
        hit_ratios: dict[str, float] = {}
        for name, _, _ in self.backends:
            try:
                doc = await self._links[name].request(
                    {"op": "stats"}, timeout_s=self.forward_timeout_s
                )
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                per_backend[name] = {
                    "ok": False,
                    "detail": f"{type(exc).__name__}: {exc}",
                }
                continue
            stats = doc.get("stats", {})
            per_backend[name] = stats
            hit_ratios[name] = stats.get("hit_ratio", 0.0)
            for field in agg:
                agg[field] += stats.get(field, 0)
        agg["hit_ratio"] = (
            (agg["cache_hits"] + agg["coalesced"]) / agg["accepted"]
            if agg["accepted"] else 0.0
        )
        agg["per_backend_hit_ratio"] = hit_ratios
        return {
            "id": rid, "ok": True,
            "router": {
                "backends": [name for name, _, _ in self.backends],
                "topology_epoch": self.epoch,
                "forwarded": self.forwarded,
                "unavailable": self.unavailable,
                "rejected_draining": self.rejected_draining,
                "located": self.located,
                "draining": self._draining,
            },
            "stats": agg,
            "backends": per_backend,
        }


def _unavailable_doc(rid: Any, backend: str, exc: Exception) -> dict[str, Any]:
    return {"id": rid, "ok": False, "error": "unavailable",
            "backend": backend, "detail": f"{type(exc).__name__}: {exc}"}
