"""``repro loadtest`` — seeded open-loop load generator for ``repro serve``.

Open-loop means arrivals are scheduled by a Poisson process at the
requested rate regardless of how fast responses come back — the
arrival schedule never adapts to server latency, so the generator
measures the server rather than its own politeness (closed-loop
clients understate tail latency under load).

The workload is deliberately duplicate-heavy, because that is the shape
of real traffic against a reproduction service: ``hot_fraction`` of
requests (default 0.9) draw from a small hot set of operating points,
the rest from the full quick-campaign sweep grid.  Everything is
derived from the seed, so a loadtest run is reproducible
request-for-request.

Each connection drives its share of the workload with id-matched
responses — the server handles queries concurrently per connection, so
duplicates in flight genuinely exercise single-flight coalescing.

A fixed-rate open-loop run can only tell you the server *kept up*, not
where its ceiling is: :func:`run_saturation` (``repro loadtest
--max-rate``) ramps the offered rate until the tail degrades and
reports ``max_sustainable_ops_per_s`` — the number BENCH_serve.json's
scaling entries are built from.
"""

from __future__ import annotations

import asyncio
import json
import random
from typing import Any

from repro.serve.frontend import percentile
from repro.serve.wire import (
    BadFrame,
    DecodeMemo,
    EncodeMemo,
    WireConnection,
    WireError,
)

#: How long the generator keeps retrying the initial connect (CI boots
#: the server as a sibling process and races it to the port).
CONNECT_RETRIES = 100
CONNECT_DELAY_S = 0.1


def build_workload(
    n_requests: int,
    seed: int = 0,
    hot_fraction: float = 0.9,
    hot_set_size: int = 5,
) -> list[tuple[str, dict[str, Any]]]:
    """A seeded, duplicate-heavy request sequence over the sweep
    operating points (sweep_base + every (mode, platform, freq) cell)."""
    from repro.core.study import MobileSoCStudy

    study = MobileSoCStudy()
    distinct: list[tuple[str, dict[str, Any]]] = [("sweep_base", {})]
    for mode in ("single", "multi"):
        for name, platform in study.platforms.items():
            for freq in platform.soc.dvfs.frequencies():
                distinct.append(
                    ("sweep_point",
                     {"mode": mode, "platform": name, "freq": freq})
                )
    rng = random.Random(seed)
    hot = distinct[: max(1, min(hot_set_size, len(distinct)))]
    workload = []
    for _ in range(n_requests):
        pool = hot if rng.random() < hot_fraction else distinct
        workload.append(rng.choice(pool))
    return workload


async def _connect(
    host: str, port: int
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    last: Exception | None = None
    for _ in range(CONNECT_RETRIES):
        try:
            return await asyncio.open_connection(host, port)
        except OSError as exc:
            last = exc
            await asyncio.sleep(CONNECT_DELAY_S)
    raise ConnectionError(
        f"could not connect to {host}:{port} after "
        f"{CONNECT_RETRIES * CONNECT_DELAY_S:.0f} s"
    ) from last


async def request_shutdown(host: str, port: int) -> None:
    """Ask a running server to drain gracefully and exit."""
    reader, writer = await _connect(host, port)
    writer.write(b'{"op": "shutdown", "id": 0}\n')
    await writer.drain()
    await reader.readline()  # the ack
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError, OSError):
        pass


async def run_loadtest_direct(
    host: str,
    port: int,
    workload: list[tuple[str, dict[str, Any]]],
    rate: float,
    arrival_seed: int = 1,
    wire: str = "json",
) -> dict[str, Any]:
    """The direct data path: one :class:`~repro.serve.client.RingClient`
    learns the topology from the router at ``host:port`` once, then
    drives ``workload`` at Poisson ``rate`` straight at each key's home
    shard (router fallback on trouble).  Same report shape as
    :func:`run_loadtest` plus the client's routing counters."""
    from repro.serve.client import RingClient

    client = RingClient(host, port, wire=wire)
    last: Exception | None = None
    for _ in range(CONNECT_RETRIES):
        try:
            await client.connect()
            break
        except (ConnectionError, OSError) as exc:
            last = exc
            await asyncio.sleep(CONNECT_DELAY_S)
    else:
        raise ConnectionError(
            f"could not learn the topology from {host}:{port}"
        ) from last

    loop = asyncio.get_running_loop()
    rng = random.Random(arrival_seed)
    tasks: list[asyncio.Task] = []
    t_start = loop.time()
    t_next = t_start
    for kind, params in workload:
        delay = t_next - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        # Open-loop like the proxied path: fire-and-collect, the
        # arrival schedule never waits on a response.
        tasks.append(loop.create_task(client.query(kind, params)))
        t_next += rng.expovariate(rate)
    send_wall_s = loop.time() - t_start
    responses = await asyncio.gather(*tasks, return_exceptions=True)
    wall_s = loop.time() - t_start
    await client.close()

    report = _tally(workload, responses, wall_s, send_wall_s)
    report["direct_queries"] = client.direct_queries
    report["router_fallbacks"] = client.router_fallbacks
    return report


def _tally(
    workload: list[tuple[str, dict[str, Any]]],
    responses: list[Any],
    wall_s: float,
    send_wall_s: float,
) -> dict[str, Any]:
    """Fold raw per-request outcomes into one report dict."""
    completed = rejected = errors = 0
    served: dict[str, int] = {"cache": 0, "coalesced": 0, "computed": 0}
    latencies: list[float] = []
    for doc in responses:
        if isinstance(doc, Exception):
            errors += 1
        elif doc.get("ok"):
            completed += 1
            served[doc["served"]] = served.get(doc["served"], 0) + 1
            latencies.append(doc["latency_s"])
        elif doc.get("error") == "overloaded":
            rejected += 1
        else:
            errors += 1
    return {
        "requests": len(workload),
        "completed": completed,
        "rejected": rejected,
        "errors": errors,
        "served": served,
        "wall_s": wall_s,
        "send_wall_s": send_wall_s,
        "latencies_s": latencies,
    }


async def run_loadtest(
    host: str,
    port: int,
    workload: list[tuple[str, dict[str, Any]]],
    rate: float,
    arrival_seed: int = 1,
    wire: str = "json",
    memos: tuple[EncodeMemo, DecodeMemo] | None = None,
) -> dict[str, Any]:
    """Drive one connection through ``workload`` at Poisson ``rate``;
    returns a report dict (raw latencies under ``latencies_s``).

    ``wire="binary"`` negotiates the ``binary1`` framing first; a
    server that declines leaves the run on JSON-lines (the report still
    completes, which is the downgrade contract).  ``memos`` lets a
    fleet share one codec-cache pair across its connections — the
    workload's hot set references the same params objects in every
    shard, so the caches compound.
    """
    reader, writer = await _connect(host, port)
    encode_memo, decode_memo = memos if memos is not None else (None, None)
    conn = WireConnection(
        reader, writer, allow_binary=False,
        encode_memo=encode_memo, decode_memo=decode_memo,
    )
    if wire == "binary":
        await conn.negotiate()
    loop = asyncio.get_running_loop()
    waiting: dict[int, asyncio.Future] = {
        rid: loop.create_future() for rid in range(len(workload))
    }
    futures = dict(waiting)

    def _fail_outstanding(exc: Exception) -> None:
        """Resolve every unanswered request as a connection error.

        Pre-fix, a connection dropped mid-run left these futures
        unresolved forever: ``writer.drain()`` raising aborted the
        arrival loop before the gather, and a readline *exception* (an
        RST is ``ConnectionResetError``, not a clean EOF) killed
        ``_read_responses`` without failing anything — so the gather
        below waited on futures nobody would ever resolve.
        """
        for fut in waiting.values():
            if not fut.done():
                fut.set_exception(
                    ConnectionError(f"connection lost mid-run: {exc}")
                )
        waiting.clear()

    async def _read_responses() -> None:
        try:
            while waiting:
                doc = await conn.recv()
                if doc is None:
                    _fail_outstanding(ConnectionError("server hung up"))
                    return
                fut = waiting.pop(doc.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result(doc)
        except (ConnectionError, OSError, WireError, BadFrame) as exc:
            _fail_outstanding(exc)

    reader_task = loop.create_task(_read_responses())

    rng = random.Random(arrival_seed)  # arrival process, own stream
    t_start = loop.time()
    t_next = t_start
    try:
        for rid, (kind, params) in enumerate(workload):
            delay = t_next - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            conn.write_request(
                {"op": "query", "id": rid, "kind": kind, "params": params}
            )
            await conn.drain()
            t_next += rng.expovariate(rate)
    except (ConnectionError, OSError) as exc:
        # The never-sent requests (and any sent-but-unanswered ones)
        # fail as errors in the report instead of hanging the gather.
        _fail_outstanding(exc)

    # The arrival process's realized duration: a Poisson schedule's
    # gap sum deviates noticeably from n/rate at small n, so capacity
    # judgements (run_saturation) compare against the rate actually
    # offered, not the nominal one.
    send_wall_s = loop.time() - t_start
    responses = await asyncio.gather(*futures.values(), return_exceptions=True)
    wall_s = loop.time() - t_start
    reader_task.cancel()
    try:
        await reader_task
    except asyncio.CancelledError:
        pass
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError, OSError):
        pass

    report = _tally(workload, list(responses), wall_s, send_wall_s)
    # What the connection actually spoke after negotiation — "json"
    # even under wire="binary" when the server declined.
    report["wire"] = conn.wire
    return report


async def run_loadtest_fleet(
    host: str,
    port: int,
    n_requests: int,
    rate: float,
    seed: int = 0,
    hot_fraction: float = 0.9,
    connections: int = 1,
    shutdown_after: bool = False,
    direct: bool = False,
    wire: str = "json",
) -> dict[str, Any]:
    """Split one seeded workload round-robin across ``connections``
    concurrent clients (sharing the offered rate) and merge the reports.

    ``direct=True`` swaps each client for a ring-aware one
    (:func:`run_loadtest_direct`): ``host:port`` must then be the
    *router*, which serves only topology discovery and fallback while
    the queries flow straight to the home shards.
    """
    workload = build_workload(n_requests, seed=seed, hot_fraction=hot_fraction)
    connections = max(1, min(connections, len(workload) or 1))
    shards = [workload[i::connections] for i in range(connections)]
    per_conn_rate = rate / connections
    memos = (
        (EncodeMemo(), DecodeMemo())
        if wire == "binary" and not direct else None
    )
    reports = await asyncio.gather(
        *(
            run_loadtest_direct(
                host, port, shard, per_conn_rate,
                arrival_seed=seed + 1 + i, wire=wire,
            )
            if direct else
            run_loadtest(
                host, port, shard, per_conn_rate,
                arrival_seed=seed + 1 + i, wire=wire, memos=memos,
            )
            for i, shard in enumerate(shards)
        )
    )
    if shutdown_after:
        await request_shutdown(host, port)

    served: dict[str, int] = {"cache": 0, "coalesced": 0, "computed": 0}
    latencies: list[float] = []
    merged: dict[str, Any] = {
        "requests": 0, "completed": 0, "rejected": 0, "errors": 0,
    }
    wall_s = 0.0
    send_wall_s = 0.0
    for rep in reports:
        for key in ("requests", "completed", "rejected", "errors"):
            merged[key] += rep[key]
        for key in ("direct_queries", "router_fallbacks"):
            if key in rep:
                merged[key] = merged.get(key, 0) + rep[key]
        for key, count in rep["served"].items():
            served[key] = served.get(key, 0) + count
        latencies.extend(rep["latencies_s"])
        wall_s = max(wall_s, rep["wall_s"])
        send_wall_s = max(send_wall_s, rep["send_wall_s"])

    completed = merged["completed"]
    merged.update(
        served=served,
        wall_s=wall_s,
        send_wall_s=send_wall_s,
        connections=connections,
        wire=reports[0].get("wire", wire),
        offered_rate_rps=rate,
        throughput_rps=completed / wall_s if wall_s > 0 else 0.0,
        hit_ratio=(
            (served["cache"] + served["coalesced"]) / completed
            if completed else 0.0
        ),
        answered_ratio=(
            (completed + merged["rejected"]) / merged["requests"]
            if merged["requests"] else 0.0
        ),
    )
    if latencies:
        merged["p50_latency_s"] = percentile(latencies, 0.50)
        merged["p99_latency_s"] = percentile(latencies, 0.99)
    return merged


async def run_saturation(
    host: str,
    port: int,
    seed: int = 0,
    hot_fraction: float = 0.9,
    connections: int = 4,
    start_rate: float = 500.0,
    growth: float = 2.0,
    step_seconds: float = 0.5,
    max_steps: int = 10,
    p99_limit_s: float = 0.05,
    min_step_requests: int = 200,
    max_step_requests: int = 20_000,
    direct: bool = False,
    wire: str = "json",
) -> dict[str, Any]:
    """Closed-loop saturation probe: find the real throughput ceiling.

    The plain open-loop loadtest reports ~offered rate whenever the
    server keeps up — cold and warm alike — so it measures the *load
    generator*, not capacity (BENCH_serve's pre-fix numbers were ~1000
    ops/s for both passes while the warm p99 was 0.22 ms).  This mode
    closes the loop on the *rate* axis: ramp the offered rate
    geometrically and at each step require the server to actually
    sustain it — delivered throughput within 90% of offered, p99 under
    ``p99_limit_s``, no errors.  The last sustained step's delivered
    throughput is ``max_sustainable_ops_per_s``; the first degraded
    step is reported alongside so the ceiling is bracketed.

    Each step reuses the same seeded duplicate-heavy workload (sized to
    ~``step_seconds`` of offered load), so successive steps measure the
    same traffic shape at increasing pressure.
    """
    if growth <= 1.0:
        raise ValueError("growth must be > 1")
    steps: list[dict[str, Any]] = []
    rate = start_rate
    best_rate = 0.0
    best_p99: float | None = None
    saturated = False
    for _ in range(max_steps):
        n_requests = max(
            min_step_requests,
            min(max_step_requests, int(rate * step_seconds)),
        )
        report = await run_loadtest_fleet(
            host, port, n_requests=n_requests, rate=rate, seed=seed,
            hot_fraction=hot_fraction, connections=connections,
            direct=direct, wire=wire,
        )
        p99 = report.get("p99_latency_s")
        achieved = report["throughput_rps"]
        # Judge against the rate the Poisson process actually offered:
        # the realized gap sum deviates from n/rate at step-sized n, so
        # holding the server to the nominal rate failed steps it had in
        # fact kept up with (arrival noise, not capacity).
        realized = (
            report["requests"] / report["send_wall_s"]
            if report["send_wall_s"] > 0 else rate
        )
        sustained = (
            report["errors"] == 0
            and report["rejected"] == 0
            and achieved >= 0.9 * min(rate, realized)
            and (p99 is None or p99 <= p99_limit_s)
        )
        step: dict[str, Any] = {
            "offered_rate_rps": rate,
            "realized_offered_rps": realized,
            "achieved_rps": achieved,
            "completed": report["completed"],
            "rejected": report["rejected"],
            "errors": report["errors"],
            "p99_latency_s": p99,
            "hit_ratio": report["hit_ratio"],
            "sustained": sustained,
        }
        if direct:
            step["direct_queries"] = report.get("direct_queries", 0)
            step["router_fallbacks"] = report.get("router_fallbacks", 0)
        steps.append(step)
        if not sustained:
            saturated = True
            break
        best_rate = achieved
        best_p99 = p99
        rate *= growth
    return {
        "mode": "saturation",
        "connections": connections,
        "direct": direct,
        "wire": wire,
        "p99_limit_s": p99_limit_s,
        "steps": steps,
        "max_sustainable_ops_per_s": best_rate,
        "sustained_p99_s": best_p99,
        "saturated": saturated,  # False: the ramp ran out before the server did
    }


def format_saturation_report(report: dict[str, Any]) -> str:
    lines = [
        f"saturation: {len(report['steps'])} step(s) over "
        f"{report['connections']} connection(s)"
        + (" [direct data path]" if report.get("direct") else "")
        + f", p99 limit {report['p99_limit_s'] * 1e3:.0f} ms"
    ]
    for step in report["steps"]:
        p99 = step["p99_latency_s"]
        p99_text = "   n/a" if p99 is None else f"{p99 * 1e3:7.2f} ms"
        lines.append(
            f"  offered {step['offered_rate_rps']:8.0f} rps -> "
            f"achieved {step['achieved_rps']:8.0f} rps, "
            f"p99 {p99_text}, "
            + ("sustained" if step["sustained"] else
               f"DEGRADED (rejected {step['rejected']}, "
               f"errors {step['errors']})")
        )
    lines.append(
        f"  max sustainable: {report['max_sustainable_ops_per_s']:.0f} ops/s"
        + ("" if report["saturated"]
           else "  (ramp exhausted before saturation)")
    )
    return "\n".join(lines)


def format_report(report: dict[str, Any]) -> str:
    lines = [
        f"loadtest: {report['requests']} requests in "
        f"{report['wall_s']:.2f} s over {report['connections']} "
        f"connection(s) (offered {report['offered_rate_rps']:.0f} rps, "
        f"completed {report['throughput_rps']:.0f} rps)",
        f"  completed {report['completed']}, "
        f"rejected {report['rejected']}, errors {report['errors']}",
        "  served: "
        + ", ".join(
            f"{k} {v}" for k, v in sorted(report["served"].items())
        )
        + f"  (hit ratio {report['hit_ratio']:.1%})",
    ]
    if "direct_queries" in report:
        lines.append(
            f"  routing: {report['direct_queries']} direct to home "
            f"shards, {report['router_fallbacks']} router fallback(s)"
        )
    if "p50_latency_s" in report:
        lines.append(
            f"  latency: p50 {report['p50_latency_s'] * 1e3:.2f} ms, "
            f"p99 {report['p99_latency_s'] * 1e3:.2f} ms"
        )
    return "\n".join(lines)
