"""JSON-lines TCP transport in front of :class:`CampaignFrontEnd`.

Protocol (one JSON object per line, both directions)::

    -> {"op": "query", "id": 1, "kind": "sweep_point",
        "params": {"mode": "single", "platform": "Tegra2", "freq": 1.0}}
    <- {"id": 1, "ok": true, "value": {...}, "served": "cache",
        "latency_s": 0.0003}

    -> {"op": "stats", "id": 2}
    <- {"id": 2, "ok": true, "stats": {...ServeStats.snapshot()...}}

    -> {"op": "ping", "id": 3}
    <- {"id": 3, "ok": true}

    -> {"op": "shutdown", "id": 4}
    <- {"id": 4, "ok": true}          # then: graceful drain, server exit

Job-tier ops (when the server is wired to a
:class:`~repro.serve.jobs.JobManager`; see :mod:`repro.serve.jobs`)::

    -> {"op": "submit", "id": 5, "tenant": "alice",
        "units": [{"kind": "sweep_point", "params": {...}}, ...]}
    -> {"op": "submit", "id": 5, "tenant": "alice", "campaign": "quick"}
    <- {"id": 5, "ok": true, "job_id": "4f2a...", "state": "queued",
        "n_units": 17}

    -> {"op": "status", "id": 6, "job_id": "4f2a..."}   # job_id optional
    <- {"id": 6, "ok": true, "job": {...}}              # or "jobs": [...]

    -> {"op": "result", "id": 7, "job_id": "4f2a..."}
    <- {"id": 7, "ok": true, "result": {"units": [...], ...}}

    -> {"op": "cancel", "id": 8, "job_id": "4f2a..."}
    <- {"id": 8, "ok": true, "cancelled": true}

Wire negotiation: the connection starts as JSON-lines.  A client may
send ``{"op": "hello", "wire": "binary1"}`` (or open with the magic
byte ``0xAB``) to switch both directions to the length-prefixed binary
framing of :mod:`repro.serve.wire`; the documents above are identical
in either framing, only the bytes differ.  Servers started with the
binary wire disabled answer ``hello`` as an unknown op (``bad_request``)
— exactly like servers that predate it — which is the client's clean
downgrade signal.

Error responses carry ``ok: false`` plus ``error`` — ``"overloaded"``
(admission control or a tenant over its job quota; includes
``retry_after_s`` and ``reason``, the 429-style refusal),
``"bad_request"`` (malformed JSON / unknown op, kind or job),
``"not_ready"`` (``result`` on a non-terminal job; includes the job's
``state``), or ``"internal"`` (execution failure).  Queries on one
connection run concurrently — responses are matched by ``id``, not by
order — which is what lets a single connection exercise single-flight
coalescing.  A hot-LRU hit is answered on the read path itself, with
no task (:meth:`CampaignFrontEnd.submit_nowait`).  Job ops are
answered inline: they touch only in-memory state plus a journal
append, never the batch executor.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import Any

from repro.serve.frontend import CampaignFrontEnd, Overloaded
from repro.serve.jobs import JobManager, JobNotReady, campaign_job_units
from repro.serve.wire import (
    MAX_UNANSWERED,
    BadFrame,
    EncodeMemo,
    WireConnection,
    WireError,
    hello_ack_doc,
)


class ServeServer:
    """One listening socket wired to one front end.

    ``port=0`` binds an ephemeral port; the actual port is on
    ``self.port`` after :meth:`start` (and printed by the CLI so
    clients and CI can find it).

    ``binary_wire`` gates the ``binary1`` framing (see
    :mod:`repro.serve.wire`): when True (the default), a client may
    negotiate binary via the ``hello`` op or open with the magic byte;
    when False the server is JSON-lines only — ``hello`` is an unknown
    op (exactly like a server that predates it) and a magic-byte
    opener gets the connection closed.

    ``advertise_host`` is the address handed out by ``locate`` answers.
    It defaults to the bind host unless that is a wildcard
    (``0.0.0.0``/``::``) — a wildcard is never connectable, so it is
    resolved to this machine's primary address instead of telling ring
    clients to dial ``0.0.0.0:<port>``.
    """

    def __init__(
        self,
        frontend: CampaignFrontEnd,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs_manager: JobManager | None = None,
        drain_timeout_s: float | None = None,
        name: str = "serve",
        binary_wire: bool = True,
        advertise_host: str | None = None,
    ) -> None:
        self.frontend = frontend
        self.host = host
        self.port = port
        self.name = name
        self.jobs = jobs_manager
        self.drain_timeout_s = drain_timeout_s
        self.binary_wire = binary_wire
        self.advertise_host = advertise_host
        self.recovered: dict[str, int] | None = None
        self._server: asyncio.Server | None = None
        self._shutdown = asyncio.Event()
        self._conn_tasks: set[asyncio.Task] = set()
        # Response-value blobs are memoised per server, not per
        # connection: the hot set is shared, so every connection reuses
        # the same encodings.
        self._encode_memo = EncodeMemo()

    async def start(self) -> None:
        if self.advertise_host is None:
            from repro.serve.router import advertised_host

            self.advertise_host = advertised_host(self.host)
        await self.frontend.start()
        if self.jobs is not None:
            # Replay the journal and resume from the cache BEFORE the
            # socket opens: clients must never observe pre-recovery
            # state, and recovered jobs re-enter dispatch immediately.
            self.recovered = self.jobs.recover()
            await self.jobs.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` op arrives, then drain gracefully:
        stop accepting connections, park incomplete jobs in the journal
        (they are durable — a restart resumes them), resolve every
        accepted query, answer any stragglers on open connections,
        close.  ``drain_timeout_s`` bounds each drain stage instead of
        letting a slow batch hold shutdown hostage."""
        assert self._server is not None, "start() first"
        await self._shutdown.wait()
        self._server.close()
        await self._server.wait_closed()
        if self.jobs is not None:
            await self.jobs.drain(self.drain_timeout_s)
        await self.frontend.drain(self.drain_timeout_s)
        if self.jobs is not None:
            self.jobs.close()
        for task in list(self._conn_tasks):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        conn = WireConnection(
            reader, writer,
            allow_binary=self.binary_wire,
            encode_memo=self._encode_memo,
        )
        conn.limit_writes()
        pending: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    req = await conn.recv()
                except BadFrame as exc:
                    # One bad frame, a still-framed stream: answer and
                    # keep reading — a wedged read loop would be worse
                    # than the malformed request.
                    await self._send(
                        conn,
                        {"id": None, "ok": False, "error": "bad_request",
                         "detail": str(exc)},
                    )
                    continue
                except WireError:
                    break  # framing broken beyond resync: drop the link
                if req is None:
                    break
                op = req.get("op")
                rid = req.get("id")
                if op == "query":
                    if not self._answer_hot(conn, rid, req):
                        # Per-request task for the rest of the funnel:
                        # queries on one connection run concurrently,
                        # so duplicates actually coalesce.
                        sub = asyncio.get_running_loop().create_task(
                            self._answer_query(conn, rid, req)
                        )
                        pending.add(sub)
                        sub.add_done_callback(pending.discard)
                        while len(pending) >= MAX_UNANSWERED:
                            await asyncio.wait(
                                pending, return_when=asyncio.FIRST_COMPLETED
                            )
                    # Hot answers are buffered without waiting: stop
                    # reading while a client that does not read holds
                    # the buffer over its mark.
                    await conn.drain_if_full()
                elif op == "stats":
                    doc = {
                        "id": rid, "ok": True,
                        "stats": self.frontend.stats.snapshot(),
                        "queue_depth": self.frontend.queue_depth,
                        "draining": self.frontend.draining,
                    }
                    if self.jobs is not None:
                        doc["jobs"] = dict(self.jobs.totals)
                    await self._send(conn, doc)
                elif op == "locate":
                    await self._send(conn, self._answer_locate(rid, req))
                elif op in ("submit", "status", "result", "cancel"):
                    await self._send(conn, self._answer_job(op, rid, req))
                elif op == "ping":
                    await self._send(conn, {"id": rid, "ok": True})
                elif op == "hello" and self.binary_wire:
                    ack, enable = hello_ack_doc(rid, req, self.binary_wire)
                    try:
                        await conn.send_hello_ack(
                            ack, enable and not conn.binary
                        )
                    except (ConnectionResetError, BrokenPipeError):
                        break
                elif op == "shutdown":
                    await self._send(conn, {"id": rid, "ok": True})
                    self.request_shutdown()
                else:
                    # A JSON-only server treats "hello" like any other
                    # unknown op — that bad_request IS the downgrade
                    # signal binary-preferring clients key off.
                    await self._send(
                        conn,
                        {"id": rid, "ok": False, "error": "bad_request",
                         "detail": f"unknown op {op!r}"},
                    )
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancels straggler connections after the drain.
            # Every accepted request is resolved by then, but its answer
            # task may not have written yet — flush those before closing
            # so "drained" means none dropped at the transport either.
            # (Finishing normally also keeps asyncio's streams helper
            # from logging the cancellation as a connection error.)
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        finally:
            for sub in pending:
                sub.cancel()
            self._conn_tasks.discard(task)
            writer.close()
            # CancelledError here is the close-waiter future dying when
            # a peer link drops mid-teardown, not task cancellation —
            # and this handler finishes normally on cancellation anyway
            # (see the except clause above).
            with contextlib.suppress(
                ConnectionResetError, BrokenPipeError, OSError,
                asyncio.CancelledError,
            ):
                await writer.wait_closed()

    def _answer_job(self, op: str, rid: Any, req: dict[str, Any]) -> dict[str, Any]:
        """Handle a job-tier op synchronously; returns the response doc.

        Job ops never touch the batch executor — they are in-memory state
        plus (for ``submit``/``cancel``) a flushed journal append — so
        answering them inline keeps them responsive even while a batch
        is executing.
        """
        if self.jobs is None:
            return {"id": rid, "ok": False, "error": "bad_request",
                    "detail": "job tier disabled (serve --no-jobs)"}
        try:
            if op == "submit":
                tenant = req.get("tenant", "default")
                campaign = req.get("campaign")
                if campaign is not None:
                    if campaign not in ("quick", "full"):
                        raise ValueError(
                            "campaign must be 'quick' or 'full'"
                        )
                    units = campaign_job_units(quick=campaign == "quick")
                elif isinstance(req.get("units"), list):
                    units = req["units"]
                else:
                    raise ValueError(
                        "submit needs a 'units' array or a 'campaign' name"
                    )
                job = self.jobs.submit(
                    tenant, units, seed=req.get("seed"),
                    job_id=req.get("job_id"),
                )
                return {"id": rid, "ok": True, "job_id": job.job_id,
                        "state": job.state, "n_units": len(job.units)}
            if op == "status":
                job_id = req.get("job_id")
                if job_id is None:
                    return {"id": rid, "ok": True,
                            "jobs": self.jobs.status()}
                return {"id": rid, "ok": True,
                        "job": self.jobs.status(job_id)}
            if op == "result":
                return {"id": rid, "ok": True,
                        "result": self.jobs.result(req.get("job_id"))}
            # op == "cancel"
            return {"id": rid, "ok": True,
                    "cancelled": self.jobs.cancel(req.get("job_id"))}
        except Overloaded as exc:
            return {"id": rid, "ok": False, "error": "overloaded",
                    "reason": exc.reason,
                    "retry_after_s": exc.retry_after_s}
        except JobNotReady as exc:
            return {"id": rid, "ok": False, "error": "not_ready",
                    "state": exc.state}
        except KeyError as exc:
            return {"id": rid, "ok": False, "error": "bad_request",
                    "detail": str(exc).strip("'\"")}
        except (ValueError, TypeError) as exc:
            return {"id": rid, "ok": False, "error": "bad_request",
                    "detail": str(exc)}
        except Exception as exc:  # noqa: BLE001 - transport containment
            return {"id": rid, "ok": False, "error": "internal",
                    "detail": f"{type(exc).__name__}: {exc}"}

    def _answer_locate(self, rid: Any, req: dict[str, Any]) -> dict[str, Any]:
        """The redirect protocol's discovery op, answered by a bare
        backend as a one-node topology: this server is every key's home
        shard.  Same shape as the router's answer, so a ring-aware
        client pointed at a single server degenerates cleanly to a
        plain client (and the wire contract stays endpoint-uniform).

        The advertised address goes on the wire, never the bind host:
        pre-fix, ``--host 0.0.0.0`` handed ring clients the
        unconnectable ``0.0.0.0:<port>``."""
        from repro.serve.router import topology_epoch

        host = self.advertise_host if self.advertise_host else self.host
        kind = req.get("kind")
        params = req.get("params")
        doc: dict[str, Any] = {
            "id": rid, "ok": True,
            "epoch": topology_epoch([(self.name, host, self.port)]),
            "backends": {self.name: [host, self.port]},
        }
        if kind is not None or params is not None:
            if not isinstance(kind, str) or not isinstance(params, dict):
                return {"id": rid, "ok": False, "error": "bad_request",
                        "detail": "locate needs a string 'kind' and "
                        "object 'params' (or neither)"}
            doc.update(backend=self.name, host=host, port=self.port)
        return doc

    def _answer_hot(
        self, conn: WireConnection, rid: Any, req: dict[str, Any]
    ) -> bool:
        """Answer a hot-LRU hit on the read path (no task, no await);
        ``False`` leaves the query, malformed ones included, to
        :meth:`_answer_query`."""
        kind = req.get("kind")
        params = req.get("params")
        if not isinstance(kind, str) or not isinstance(params, dict):
            return False
        t0 = time.monotonic()
        try:
            hit = self.frontend.submit_nowait(kind, params)
        except ValueError:
            return False
        if hit is None:
            return False
        if req.get("via") == "direct":
            self.frontend.stats.direct += 1
        value, served = hit
        conn.write_query_response(rid, value, served, time.monotonic() - t0)
        return True

    async def _answer_query(
        self,
        conn: WireConnection,
        rid: Any,
        req: dict[str, Any],
    ) -> None:
        kind = req.get("kind")
        params = req.get("params")
        # Ring-aware clients tag queries they routed themselves so the
        # stats distinguish router-proxied from direct traffic (the
        # response shape stays identical on both paths).  Counted only
        # for queries the funnel actually admits — pre-fix the counter
        # ticked before validation, so malformed via:"direct" frames
        # permanently skewed the direct-vs-proxied accounting.
        direct = req.get("via") == "direct"
        if not isinstance(kind, str) or not isinstance(params, dict):
            await self._send(
                conn,
                {"id": rid, "ok": False, "error": "bad_request",
                 "detail": "query needs a string 'kind' and object 'params'"},
            )
            return
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        try:
            value, served = await self.frontend.submit(kind, params)
        except Overloaded as exc:
            await self._send(
                conn,
                {"id": rid, "ok": False, "error": "overloaded",
                 "reason": exc.reason,
                 "retry_after_s": exc.retry_after_s},
            )
            return
        except ValueError as exc:
            await self._send(
                conn,
                {"id": rid, "ok": False, "error": "bad_request",
                 "detail": str(exc)},
            )
            return
        except Exception as exc:
            if direct:
                self.frontend.stats.direct += 1  # admitted, then failed
            await self._send(
                conn,
                {"id": rid, "ok": False, "error": "internal",
                 "detail": f"{type(exc).__name__}: {exc}"},
            )
            return
        if direct:
            self.frontend.stats.direct += 1
        conn.write_query_response(rid, value, served, loop.time() - t0)
        try:
            await conn.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; the front end still counted the work

    @staticmethod
    async def _send(conn: WireConnection, doc: dict[str, Any]) -> None:
        try:
            await conn.send(doc)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; the front end still counted the work
