"""``repro serve`` / ``repro loadtest`` — the serving argument surface.

Usage::

    python -m repro serve                        # default cache and journal
    python -m repro serve --port 7653
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
import sys
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

#: GIL switch interval for ``repro serve``.  Simulation misses run on
#: the front end's executor thread; at CPython's default 5 ms the event
#: loop waits out a whole interval each time it needs the GIL back, and
#: a hot hit queued behind a computing simulation pays for it.  On a
#: 2-vCPU VM, with 17 large simulations computing, the hot-hit p99 was
#: 34.9-42.7 ms at 5 ms and 2.35-2.63 ms at 0.5 ms (3.89 ms over the
#: worker pool this replaced), for a burst wall time of 0.28-0.40 s
#: instead of the pool's 0.24 s.  DESIGN.md section 11.
SWITCH_INTERVAL_S = 0.0005


def serve_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve campaign queries over JSON-lines TCP with "
        "single-flight coalescing, cache-backed hits, sweep points "
        "computed on the read path and each simulation miss run on one "
        "executor thread.",
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
        "--jobs", type=jobs_count, default=1, metavar="N",
        help="accepted for compatibility and ignored: every miss runs "
        "in this process (must still be at least 1)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=256, metavar="N",
        help="distinct simulation misses queued or running on the "
        "executor thread before 429-style rejection (default: 256)",
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
        help="this backend's cluster shard name, as locate answers "
        "name it (default: serve)",
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
        help="address locate answers hand to clients "
        "(default: the bind address, or this machine's primary "
        "address when binding a wildcard)",
    )
    args = parser.parse_args(argv)
    try:
        config = ServeConfig(
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
    except ValueError as exc:
        parser.error(str(exc))
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    return asyncio.run(
        _serve(
            config, args.host, args.port,
            journal_dir=None if args.no_jobs else args.journal_dir,
            jobs_config=jobs_config,
            drain_timeout_s=args.drain_timeout,
            name=args.name,
            binary_wire=args.wire != "json",
            advertise_host=args.advertise_host,
        )
    )


async def _serve(
    config: ServeConfig,
    host: str,
    port: int,
    journal_dir: Path | None = None,
    jobs_config: JobsConfig | None = None,
    drain_timeout_s: float | None = None,
    name: str = "serve",
    binary_wire: bool = True,
    advertise_host: str | None = None,
) -> int:
    frontend = CampaignFrontEnd(config)
    manager = None
    if journal_dir is not None:
        # The job tier checkpoints into the SAME cache directory the
        # query path serves hits from: a simulation unit computed for
        # a job answers later queries, and vice versa.  Sweep answers
        # stay in the query path's memory.
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
    print(
        f"repro serve: listening on {server.host}:{server.port} "
        f"(queue_limit={config.queue_limit}, "
        f"cache={'off' if config.cache_dir is None else config.cache_dir}, "
        f"journal={'off' if journal_dir is None else journal_dir}, "
        f"wire={'json+binary1' if binary_wire else 'json'}"
        f"){recovered}",
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
        f"hit ratio {snap['hit_ratio']:.1%}, "
        f"offloaded {snap['offloaded']} unit(s)" + jobs_note
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
