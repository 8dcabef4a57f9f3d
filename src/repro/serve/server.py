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
:class:`~repro.serve.jobs.JobManager`, see :mod:`repro.serve.jobs`;
without one each is a ``bad_request``, "job tier disabled")::

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
coalescing.  A hot-LRU hit or a sweep miss is answered on the read path
itself, in the callback that read it, with no task
(:meth:`CampaignFrontEnd.submit_nowait`).  Job ops, like every other
non-query op, are answered in request order while the connection reads
nothing more: they touch only in-memory state plus a journal append,
never the executor thread.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any

from repro.serve.frontend import SERVED_CACHE, CampaignFrontEnd, Overloaded
from repro.serve.jobs import JobManager, JobNotReady, campaign_job_units
from repro.serve.router import advertised_host, topology_epoch
from repro.serve.wire import JOB_OPS, ServedConnection, WireEndpoint


class ServeServer(WireEndpoint):
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

    ``advertise_host`` is the address handed out by ``locate`` answers,
    which describe this server as a one-backend topology.  It defaults
    to the bind host unless that is a wildcard (``0.0.0.0``/``::``) — a
    wildcard is never connectable, so it is resolved to this machine's
    primary address instead of telling ring clients to dial
    ``0.0.0.0:<port>``.
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
        super().__init__(host, port, binary_wire)
        self.frontend = frontend
        self.name = name
        self.jobs = jobs_manager
        self.drain_timeout_s = drain_timeout_s
        self.advertise_host = advertise_host
        self.recovered: dict[str, int] | None = None
        self._ops["stats"] = self._answer_stats
        if jobs_manager is not None:
            self._ops.update(dict.fromkeys(JOB_OPS, self._answer_job))

    async def start(self) -> None:
        self.advertise_host = advertised_host(self.host, self.advertise_host)
        if self.jobs is not None:
            # Replay the journal and resume from the cache BEFORE the
            # socket opens: clients must never observe pre-recovery
            # state, and recovered jobs re-enter dispatch immediately.
            self.recovered = self.jobs.recover()
            await self.jobs.start()
        await super().start()
        self.backends = [(self.name, self.advertise_host, self.port)]
        self.epoch = topology_epoch(self.backends)

    async def _drain(self) -> None:
        """Park incomplete jobs in the journal (they are durable — a
        restart resumes them), then resolve every accepted query.
        ``drain_timeout_s`` bounds each stage instead of letting a slow
        unit hold shutdown hostage."""
        if self.jobs is not None:
            await self.jobs.drain(self.drain_timeout_s)
        await self.frontend.drain(self.drain_timeout_s)
        if self.jobs is not None:
            self.jobs.close()

    def _home_of(self, kind: str, params: dict[str, Any]) -> str:
        return self.name

    def _query(
        self, conn: ServedConnection, rid: Any, req: dict[str, Any]
    ) -> None:
        """A hot-LRU hit or a sweep miss is answered right here, and a
        computed answer yields one loop turn if more input is already
        buffered, so a one-write burst cannot starve other connections.
        Any other query gets a task for the rest of the funnel, so that
        duplicates on one connection coalesce."""
        answered = self._answer_hot(conn, rid, req)
        if not answered:
            conn.spawn(self._answer_query(conn, rid, req))
        elif answered != SERVED_CACHE and conn.has_input():
            conn.yield_turn()

    async def _answer_stats(
        self, rid: Any, req: dict[str, Any]
    ) -> dict[str, Any]:
        doc = {
            "id": rid, "ok": True,
            "stats": self.frontend.stats.snapshot(),
            "queue_depth": self.frontend.queue_depth,
            "draining": self.frontend.draining,
        }
        if self.jobs is not None:
            doc["jobs"] = dict(self.jobs.totals)
        return doc

    async def _answer_job(
        self, rid: Any, req: dict[str, Any]
    ) -> dict[str, Any]:
        """Handle a job-tier op without waiting on anything; returns the
        response doc.

        Job ops never touch the executor thread — they are in-memory
        state plus (for ``submit``/``cancel``) a flushed journal append —
        so answering them inline keeps them responsive even while a
        unit is executing.
        """
        op = req["op"]
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

    def _answer_hot(
        self, conn: ServedConnection, rid: Any, req: dict[str, Any]
    ) -> str | None:
        """Answer a hot hit, a sweep miss or an unknown kind with no
        task or await; returns the ``served`` tag or error it answered
        with, or ``None`` to leave the query to :meth:`_answer_query`."""
        t0 = time.monotonic()
        try:
            hit = self.frontend.submit_nowait(req["kind"], req["params"])
        except Exception as exc:  # noqa: BLE001 - answered, never raised
            return self._answer_error(conn, rid, req, exc)
        if hit is None:
            return None
        if req.get("via") == "direct":
            self.frontend.stats.direct += 1
        value, served = hit
        conn.write_query_response(rid, value, served, time.monotonic() - t0)
        return served

    async def _answer_query(
        self,
        conn: ServedConnection,
        rid: Any,
        req: dict[str, Any],
    ) -> None:
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        try:
            value, served = await self.frontend.submit(
                req["kind"], req["params"]
            )
        except Exception as exc:  # noqa: BLE001 - answered, never raised
            self._answer_error(conn, rid, req, exc)
        else:
            if req.get("via") == "direct":
                self.frontend.stats.direct += 1
            conn.write_query_response(rid, value, served, loop.time() - t0)

    def _answer_error(
        self, conn: ServedConnection, rid: Any, req: dict[str, Any],
        exc: Exception,
    ) -> str:
        """Answer a query that raised ``exc``; returns the error.  A
        failed ``via: "direct"`` query (a ring client routed it) counts
        as direct only if admitted: ``internal``, not refused or bad."""
        if isinstance(exc, Overloaded):
            error = {"error": "overloaded", "reason": exc.reason,
                     "retry_after_s": exc.retry_after_s}
        elif isinstance(exc, ValueError):
            error = {"error": "bad_request", "detail": str(exc)}
        else:
            error = {"error": "internal",
                     "detail": f"{type(exc).__name__}: {exc}"}
            if req.get("via") == "direct":
                self.frontend.stats.direct += 1
        conn.write_response({"id": rid, "ok": False, **error})
        return error["error"]
