"""``repro serve`` / ``repro loadtest`` — the serving argument surface.

Usage::

    python -m repro serve                        # default cache + 2 workers
    python -m repro serve --port 7653 --jobs 4
    python -m repro loadtest --port 7653 --quick --assert-hit-ratio 0.9
    python -m repro loadtest --port 7653 --requests 2000 --rate 500 --shutdown

``repro serve`` prints one ``listening on HOST:PORT`` line (flushed) as
its readiness signal — CI and scripts wait for it before pointing the
load generator at the port.  SIGINT/SIGTERM trigger the same graceful
drain as the ``shutdown`` op: stop admitting, resolve everything
accepted, exit.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import signal
from pathlib import Path

from repro.cli import jobs_count
from repro.parallel.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.serve.frontend import CampaignFrontEnd, ServeConfig
from repro.serve.jobs import JobManager, JobsConfig
from repro.serve.journal import JobJournal
from repro.serve.loadtest import (
    format_report,
    format_saturation_report,
    request_shutdown,
    run_loadtest_fleet,
    run_saturation,
)
from repro.serve.server import ServeServer

#: Default journal location for the durable job tier.
DEFAULT_JOURNAL_DIR = Path(".repro-jobs")


def serve_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve campaign queries over JSON-lines TCP with "
        "single-flight coalescing, cache-backed hits and micro-batched "
        "execution (sweep points in process, simulations sharded over a "
        "worker pool).",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=0,
        help="bind port (default: 0 = ephemeral; the actual port is "
        "printed on the 'listening on' line)",
    )
    parser.add_argument(
        "--jobs", type=jobs_count, default=2,
        help="worker processes for Figure 6 / headline misses and job "
        "batches; 1 forks no pool (default: 2)",
    )
    parser.add_argument(
        "--batch-window", type=float, default=0.01, metavar="S",
        help="micro-batch collection window in seconds (default: 0.01)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=32, metavar="N",
        help="distinct misses per batch (default: 32)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=256, metavar="N",
        help="pending-computation bound before 429-style rejection "
        "(default: 256)",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=f"result-cache location (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="serve without the result cache (every miss recomputes)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="study seed baked into cache keys (default: 0)",
    )
    parser.add_argument(
        "--name", default="serve",
        help="this backend's cluster shard name (default: serve); only "
        "meaningful with --peers",
    )
    parser.add_argument(
        "--peers", default=None, metavar="NAME=HOST:PORT,...",
        help="cluster peer map for cache peer-fill, e.g. "
        "'b0=127.0.0.1:7001,b1=127.0.0.1:7002'; must include this "
        "backend's own --name",
    )
    parser.add_argument(
        "--peer-timeout", type=float, default=2.0, metavar="S",
        help="cache peer-fill probe budget in seconds (default: 2.0)",
    )
    parser.add_argument(
        "--journal-dir", type=Path, default=DEFAULT_JOURNAL_DIR,
        metavar="DIR",
        help="durable job-tier journal location "
        f"(default: {DEFAULT_JOURNAL_DIR})",
    )
    parser.add_argument(
        "--no-jobs", action="store_true",
        help="serve queries only: disable the durable job tier",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=None, metavar="S",
        help="bound each shutdown drain stage (default: unbounded); "
        "at the deadline incomplete jobs stay parked in the journal "
        "and unresolved queries get an overloaded/draining response",
    )
    parser.add_argument(
        "--tenant-quota", type=int, default=4096, metavar="N",
        help="max queued job units per tenant (default: 4096)",
    )
    parser.add_argument(
        "--unit-attempts", type=int, default=3, metavar="N",
        help="unit attempts before quarantine (default: 3)",
    )
    parser.add_argument(
        "--retry-backoff", type=float, default=0.05, metavar="S",
        help="base of the exponential unit-retry backoff (default: 0.05)",
    )
    parser.add_argument(
        "--job-batch", type=int, default=16, metavar="N",
        help="job units dispatched per batch — the checkpoint "
        "granularity a crash can lose (default: 16)",
    )
    parser.add_argument(
        "--wire", choices=("auto", "json"), default="auto",
        help="wire protocols to accept: 'auto' (default) negotiates "
        "the binary1 framing per connection and keeps JSON-lines as "
        "the default; 'json' disables binary entirely",
    )
    parser.add_argument(
        "--advertise-host", default=None, metavar="HOST",
        help="address locate/redirect answers hand to clients "
        "(default: the bind address, or this machine's primary "
        "address when binding a wildcard)",
    )
    args = parser.parse_args(argv)
    try:
        config = ServeConfig(
            jobs=args.jobs,
            batch_window_s=args.batch_window,
            max_batch=args.max_batch,
            queue_limit=args.queue_limit,
            cache_dir=None if args.no_cache else args.cache_dir,
            seed=args.seed,
        )
        jobs_config = JobsConfig(
            tenant_quota_units=args.tenant_quota,
            max_attempts=args.unit_attempts,
            retry_backoff_s=args.retry_backoff,
            batch_units=args.job_batch,
            seed=args.seed,
        )
        peers = parse_peers(args.peers) if args.peers else None
        if peers is not None and args.name not in peers:
            raise ValueError(
                f"--peers must include this backend's own name "
                f"({args.name!r}); got {sorted(peers)}"
            )
    except ValueError as exc:
        parser.error(str(exc))
    return asyncio.run(
        _serve(
            config, args.host, args.port,
            journal_dir=None if args.no_jobs else args.journal_dir,
            jobs_config=jobs_config,
            drain_timeout_s=args.drain_timeout,
            name=args.name,
            peers=peers,
            peer_timeout_s=args.peer_timeout,
            binary_wire=args.wire != "json",
            advertise_host=args.advertise_host,
        )
    )


def parse_peers(spec: str) -> dict[str, tuple[str, int]]:
    """Parse ``'b0=127.0.0.1:7001,b1=127.0.0.1:7002'`` into
    ``{name: (host, port)}``."""
    peers: dict[str, tuple[str, int]] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, addr = item.partition("=")
        host, sep2, port = addr.rpartition(":")
        if not sep or not sep2 or not name or not host:
            raise ValueError(
                f"bad peer {item!r}: expected NAME=HOST:PORT"
            )
        try:
            peers[name] = (host, int(port))
        except ValueError:
            raise ValueError(f"bad peer port in {item!r}") from None
    if not peers:
        raise ValueError("--peers given but no peers parsed")
    return peers


async def _serve(
    config: ServeConfig,
    host: str,
    port: int,
    journal_dir: Path | None = None,
    jobs_config: JobsConfig | None = None,
    drain_timeout_s: float | None = None,
    name: str = "serve",
    peers: dict[str, tuple[str, int]] | None = None,
    peer_timeout_s: float = 2.0,
    binary_wire: bool = True,
    advertise_host: str | None = None,
) -> int:
    frontend = CampaignFrontEnd(config)
    if peers is not None:
        # Cluster shard: a local cache miss asks the key's home shard
        # (compute-free probe) before paying for the computation.
        from repro.serve.router import CachePeerFill, HashRing

        frontend.peer_fill = CachePeerFill(
            HashRing(sorted(peers)), name, peers,
            probe_timeout_s=peer_timeout_s,
        )
    manager = None
    if journal_dir is not None:
        # The job tier checkpoints into the SAME cache directory the
        # query path serves hits from: a unit computed for a job
        # answers later queries, and vice versa.
        manager = JobManager(
            JobJournal(journal_dir),
            ResultCache(config.cache_dir)
            if config.cache_dir is not None else None,
            frontend.execute_units,
            jobs_config or JobsConfig(seed=config.seed),
        )
    server = ServeServer(
        frontend, host, port,
        jobs_manager=manager, drain_timeout_s=drain_timeout_s,
        name=name, binary_wire=binary_wire,
        advertise_host=advertise_host,
    )
    await server.start()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(sig, server.request_shutdown)
    recovered = ""
    if server.recovered is not None and server.recovered["restored"]:
        recovered = (
            f" — recovered {server.recovered['restored']} job(s), "
            f"{server.recovered['resumed_units']} unit(s) from cache"
        )
    shard = ""
    if peers is not None:
        shard = f", shard={name}/{len(peers)}"
    print(
        f"repro serve: listening on {server.host}:{server.port} "
        f"(jobs={config.jobs}, queue_limit={config.queue_limit}, "
        f"cache={'off' if config.cache_dir is None else config.cache_dir}, "
        f"journal={'off' if journal_dir is None else journal_dir}, "
        f"wire={'json+binary1' if binary_wire else 'json'}"
        f"{shard}){recovered}",
        flush=True,
    )
    await server.serve_until_shutdown()
    snap = frontend.stats.snapshot()
    jobs_note = ""
    if manager is not None:
        t = manager.totals
        jobs_note = (
            f"; jobs: {t['submitted']} submitted, {t['done']} done, "
            f"{t['units_done']} unit(s)"
        )
    print(
        "repro serve: drained and stopped — "
        f"{snap['accepted']} accepted, {snap['rejected']} rejected, "
        f"hit ratio {snap['hit_ratio']:.1%} over "
        f"{snap['batches']} batch(es)" + jobs_note
    )
    return 0


def loadtest_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro loadtest",
        description="Seeded open-loop load generator for 'repro serve'.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="server address (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, required=True,
        help="server port (from the serve 'listening on' line)",
    )
    parser.add_argument(
        "--requests", type=int, default=2000, metavar="N",
        help="total requests to offer (default: 2000)",
    )
    parser.add_argument(
        "--rate", type=float, default=500.0, metavar="RPS",
        help="offered Poisson arrival rate, requests/s (default: 500)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload + arrival-process seed (default: 0)",
    )
    parser.add_argument(
        "--hot-fraction", type=float, default=0.9, metavar="F",
        help="fraction of requests drawn from the hot set (default: 0.9)",
    )
    parser.add_argument(
        "--jobs", type=jobs_count, default=1,
        help="concurrent client connections sharing the offered rate "
        "(default: 1)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke preset: 600 requests at 600 rps",
    )
    parser.add_argument(
        "--max-rate", action="store_true",
        help="closed-loop saturation mode: ramp the offered rate until "
        "p99 degrades and report max_sustainable_ops_per_s (ignores "
        "--requests/--rate/--quick sizing)",
    )
    parser.add_argument(
        "--start-rate", type=float, default=500.0, metavar="RPS",
        help="--max-rate: first ramp step's offered rate (default: 500)",
    )
    parser.add_argument(
        "--growth", type=float, default=2.0, metavar="X",
        help="--max-rate: offered-rate multiplier per step (default: 2)",
    )
    parser.add_argument(
        "--step-seconds", type=float, default=0.5, metavar="S",
        help="--max-rate: offered load per step, in seconds of traffic "
        "(default: 0.5)",
    )
    parser.add_argument(
        "--max-steps", type=int, default=10, metavar="N",
        help="--max-rate: ramp steps before giving up (default: 10)",
    )
    parser.add_argument(
        "--p99-slo", type=float, default=0.05, metavar="S",
        help="--max-rate: p99 latency beyond which a step counts as "
        "degraded (default: 0.05)",
    )
    parser.add_argument(
        "--direct", action="store_true",
        help="ring-aware data path: learn the cluster topology via "
        "'locate' and send each query straight to its home shard, "
        "falling back to the router only on failure (works in both "
        "open-loop and --max-rate modes; against a bare server it "
        "degenerates to a one-node topology)",
    )
    parser.add_argument(
        "--wire", choices=("json", "binary"), default="json",
        help="client framing: 'binary' negotiates binary1 per "
        "connection (a JSON-only server downgrades the run cleanly); "
        "default json",
    )
    parser.add_argument(
        "--assert-hit-ratio", type=float, default=None, metavar="X",
        help="exit 1 unless the coalesce+cache hit ratio reaches X",
    )
    parser.add_argument(
        "--shutdown", action="store_true",
        help="send the server a graceful-shutdown op after the run",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the report as JSON instead of the text summary",
    )
    args = parser.parse_args(argv)
    if args.max_rate:
        report = asyncio.run(
            run_saturation(
                args.host,
                args.port,
                seed=args.seed,
                hot_fraction=args.hot_fraction,
                connections=max(args.jobs, 2),
                start_rate=args.start_rate,
                growth=args.growth,
                step_seconds=args.step_seconds,
                max_steps=args.max_steps,
                p99_limit_s=args.p99_slo,
                direct=args.direct,
                wire=args.wire,
            )
        )
        if args.shutdown:
            asyncio.run(request_shutdown(args.host, args.port))
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(format_saturation_report(report))
        return 0 if report["max_sustainable_ops_per_s"] > 0 else 1
    n_requests = 600 if args.quick else args.requests
    rate = 600.0 if args.quick else args.rate
    report = asyncio.run(
        run_loadtest_fleet(
            args.host,
            args.port,
            n_requests=n_requests,
            rate=rate,
            seed=args.seed,
            hot_fraction=args.hot_fraction,
            connections=args.jobs,
            shutdown_after=args.shutdown,
            direct=args.direct,
            wire=args.wire,
        )
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(report))
    if report["errors"]:
        print(f"loadtest: FAIL — {report['errors']} error responses")
        return 1
    if (
        args.assert_hit_ratio is not None
        and report["hit_ratio"] < args.assert_hit_ratio
    ):
        print(
            f"loadtest: FAIL — hit ratio {report['hit_ratio']:.1%} "
            f"below the required {args.assert_hit_ratio:.1%}"
        )
        return 1
    return 0
