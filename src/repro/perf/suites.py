"""The benchmark suites: engine, MPI point-to-point, applications.

Every benchmark is deliberately *pure simulator* — no I/O, no
randomness outside the models' own seeded draws — so ops/s measures the
scheduler and cost-model hot paths and nothing else.

The engine suite reports ``speedup_vs_seed`` figures measured *live*
against the frozen seed scheduler (``benchmarks/perf/seed_engine.py``),
back-to-back on the machine at hand — a controlled comparison that is
immune to host speed and load.  :data:`SEED_OPS_PER_S` is only the
fallback denominator when that reference copy is not on disk; the MPI
and apps suites make no speedup claim (their gains ride on the same
scheduler) and are tracked purely by the baseline regression gate.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.perf.bench import BenchResult, peak_rss_bytes, run_bench

#: ops/s of the seed (pre-optimisation) code on the reference machine.
#: Measured with the identical suite bodies by checking out the PR-2
#: engine/study and running ``python -m repro bench`` — see DESIGN.md §9
#: for the protocol.
SEED_OPS_PER_S: dict[str, dict[str, float]] = {
    # Measured on the reference machine with both engines loaded in ONE
    # process, alternating old/new for 7 rounds and keeping each
    # benchmark's best round (the protocol engine_suite_with_seed
    # automates; this table is its offline fallback).
    "engine": {
        "engine.timer_cascade": 329_750.0,
        "engine.event_chain": 73_000.0,
        "engine.timeouts": 118_590.0,
    },
    # The quick serial campaign as committed at the seed of the
    # vectorized-sweep work (pre-optimisation BENCH_campaign.json on the
    # reference machine): 7.8639 s wall.  The serial entry's
    # speedup_vs_seed — and the >=5x acceptance gate encoded in
    # benchmarks/perf/baseline.json — are measured against this figure.
    "campaign": {
        "campaign.quick_serial": 0.12716406203267594,
    },
}


# ---------------------------------------------------------------------------
# Engine microbenchmarks
# ---------------------------------------------------------------------------
# Each body takes the Engine class so the same code can time the live
# scheduler and the frozen seed copy (benchmarks/perf/seed_engine.py).

def _bench_timer_cascade(engine_cls: type, n_procs: int, steps: int) -> int:
    """The dominant simulator shape: many processes, each repeatedly
    yielding a timeout (compute/communicate loops)."""
    eng = engine_cls()

    def worker(i: int):
        timeout = eng.timeout
        for s in range(steps):
            yield timeout(0.001 * ((i + s) % 7 + 1))

    for i in range(n_procs):
        eng.process(worker(i))
    eng.run()
    return n_procs * steps


def _bench_event_chain(engine_cls: type, n: int) -> int:
    """A chain of processes each woken by its predecessor's event —
    stresses succeed/waiter dispatch rather than the timer heap."""
    eng = engine_cls()
    evs = [eng.event() for _ in range(n + 1)]

    def pinger(i: int):
        yield evs[i]
        evs[i + 1].succeed(i)

    for i in range(n):
        eng.process(pinger(i))

    def kick():
        yield eng.timeout(0.0)
        evs[0].succeed(-1)

    eng.process(kick())
    eng.run()
    return n


def _bench_timeouts(engine_cls: type, n: int) -> int:
    """Bare timer churn: heap push/pop and the inlined-succeed fast
    path, no generator in the loop."""
    eng = engine_cls()
    timeout = eng.timeout
    for i in range(n):
        timeout(0.0001 * (i % 13))
    eng.run()
    return n


def _engine_bodies(quick: bool) -> list[tuple[str, Callable[[type], int]]]:
    scale = 4 if quick else 1
    return [
        (
            "engine.timer_cascade",
            lambda cls: _bench_timer_cascade(cls, 400 // scale, 100),
        ),
        (
            "engine.event_chain",
            lambda cls: _bench_event_chain(cls, 50_000 // scale),
        ),
        (
            "engine.timeouts",
            lambda cls: _bench_timeouts(cls, 200_000 // scale),
        ),
    ]


def engine_suite(repeats: int = 3, quick: bool = False) -> list[BenchResult]:
    from repro.sim.engine import Engine

    return [
        run_bench(name, lambda: body(Engine), repeats)
        for name, body in _engine_bodies(quick)
    ]


def load_seed_engine_cls() -> type | None:
    """The frozen seed scheduler's Engine class, or ``None`` when the
    reference copy is not on disk (installed package, no checkout)."""
    import importlib.util
    from pathlib import Path

    path = (
        Path(__file__).resolve().parents[3]
        / "benchmarks" / "perf" / "seed_engine.py"
    )
    if not path.is_file():
        return None
    spec = importlib.util.spec_from_file_location("repro_perf_seed_engine", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.Engine


def engine_suite_with_seed(
    repeats: int = 3, quick: bool = False
) -> tuple[list[BenchResult], dict[str, float]]:
    """Time each engine benchmark against the live scheduler AND the
    frozen seed scheduler, back-to-back per benchmark.

    Adjacent measurement keeps the two numbers under the same machine
    conditions, so ``speedup_vs_seed`` is a controlled comparison even
    on a loaded or throttling host.  Falls back to the recorded
    :data:`SEED_OPS_PER_S` when the reference copy is unavailable.
    """
    from repro.sim.engine import Engine

    seed_cls = load_seed_engine_cls()
    if seed_cls is None:
        return engine_suite(repeats, quick), dict(SEED_OPS_PER_S["engine"])
    results: list[BenchResult] = []
    seed_ref: dict[str, float] = {}
    for name, body in _engine_bodies(quick):
        new = run_bench(name, lambda: body(Engine), repeats)
        old = run_bench(name, lambda: body(seed_cls), repeats)
        results.append(new)
        seed_ref[name] = old.ops_per_s
    return results, seed_ref


# ---------------------------------------------------------------------------
# MPI microbenchmarks
# ---------------------------------------------------------------------------

def _pingpong(iters: int, nbytes: int) -> int:
    from repro.mpi.api import MPIWorld, SyntheticPayload, UniformNetwork
    from repro.net.protocol import TCP_IP, ProtocolStack

    stack = ProtocolStack(TCP_IP, core_name="Cortex-A9", freq_ghz=1.0)
    world = MPIWorld(2, UniformNetwork(stack))
    payload = SyntheticPayload(nbytes)

    def rank_fn(ctx):
        peer = 1 - ctx.rank
        for _ in range(iters):
            if ctx.rank == 0:
                yield from ctx.send(peer, payload)
                yield from ctx.recv(peer)
            else:
                yield from ctx.recv(peer)
                yield from ctx.send(peer, payload)

    world.run(rank_fn)
    return 2 * iters  # messages delivered


def _mpi_bodies(quick: bool) -> list[tuple[str, Callable[[], int]]]:
    iters = 1_000 if quick else 5_000
    return [
        ("mpi.pingpong_small", lambda: _pingpong(iters, 1024)),
        # 256 KiB crosses Open-MX's rendezvous threshold on stacks that
        # have one; on TCP/IP it simply exercises the per-byte path.
        ("mpi.pingpong_rendezvous", lambda: _pingpong(iters // 2, 256 * 1024)),
    ]


def mpi_suite(repeats: int = 3, quick: bool = False) -> list[BenchResult]:
    return [
        run_bench(name, body, repeats) for name, body in _mpi_bodies(quick)
    ]


# ---------------------------------------------------------------------------
# Application benchmarks
# ---------------------------------------------------------------------------

def _hpl96() -> int:
    from repro.core.study import MobileSoCStudy

    MobileSoCStudy().headline_hpl(96)
    return 1  # one full-study run


def _fig3_sweep() -> int:
    from repro.core.study import MobileSoCStudy

    study = MobileSoCStudy()
    study.figure3()
    study.figure4()
    return 1


def _fig6_grid() -> int:
    """The full Figure 6 grid through a fresh study (no memo); returns
    the number of (app, node count) points simulated."""
    from repro.core.study import FIG6_FULL_COUNTS, MobileSoCStudy

    figure6 = MobileSoCStudy().figure6(FIG6_FULL_COUNTS)
    return sum(len(curve) for curve in figure6.values())


def _figure7() -> int:
    """Figure 7 through a fresh study (cold protocol-stack memos);
    returns the number of ping-pongs run."""
    from repro.core.study import MobileSoCStudy

    figure7 = MobileSoCStudy().figure7()
    return sum(
        len(curves["latency_us"]) + len(curves["bandwidth_mbs"])
        for curves in figure7.values()
    )


def _sweep_point_cold() -> int:
    """Single-point ``sweep_point`` calls on a fresh study (cold memos
    and plans) at seeded off-grid frequencies, the unit a cold serve
    miss computes; returns the number of points."""
    import random

    from repro.core.study import MobileSoCStudy

    study = MobileSoCStudy()
    rng = random.Random(0)
    names = sorted(study.platforms)
    n = 200
    for _ in range(n):
        name = rng.choice(names)
        dvfs = study.platforms[name].soc.dvfs.frequencies()
        study.sweep_point(
            rng.choice(("single", "multi")), name,
            rng.uniform(min(dvfs), max(dvfs)),
        )
    return n


def _vs_oracle(
    name: str, body: Callable[[], int], repeats: int, oracle: str = "des"
) -> BenchResult:
    """``body`` on the default (fast) path, then under the reference
    oracle (``REPRO_SCALAR_SWEEP=1``: the discrete-event engine for the
    apps, the scalar walk for the sweep) in the same process:
    ``speedup_vs_<oracle>`` is a same-run ratio, not a comparison with
    a stored baseline.  The oracle pass is several times slower, so it
    gets a single timed run."""
    import os
    from unittest import mock

    fast = run_bench(name, body, repeats)
    with mock.patch.dict(os.environ, REPRO_SCALAR_SWEEP="1"):
        ref = run_bench(f"{name}_{oracle}", body, 1, warmup=False)
    fast.extras.update({
        f"{oracle}_wall_s": ref.wall_s,
        f"speedup_vs_{oracle}": ref.wall_s / fast.wall_s,
        "host_cpus": float(os.cpu_count() or 1),
    })
    return fast


def _sweep_point_cold_result(repeats: int) -> BenchResult:
    result = _vs_oracle(
        "apps.sweep_point_cold", _sweep_point_cold, repeats, "scalar"
    )
    result.extras["us_per_point"] = result.wall_s / result.ops * 1e6
    return result


def _cache_roundtrip(n: int = 200) -> dict[str, float]:
    """Microseconds per ``ResultCache`` put, hit and miss for a
    ``sweep_point`` value, on a fresh directory: ``n`` puts of distinct
    keys, a get of each, then gets of ``n`` keys never written."""
    import tempfile
    import time

    from repro.core.study import MobileSoCStudy
    from repro.parallel.cache import ResultCache, unit_key

    value = MobileSoCStudy().sweep_point("single", "Tegra2", 0.777)
    keys = [
        unit_key("sweep_point",
                 {"mode": "single", "platform": "Tegra2", "freq": 0.5 + i / 1e4})
        for i in range(2 * n)
    ]
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as td:
        cache = ResultCache(td)
        t0 = time.perf_counter()
        for key in keys[:n]:
            cache.put(key, value, kind="sweep_point")
        t1 = time.perf_counter()
        for key in keys[:n]:
            cache.get(key)
        t2 = time.perf_counter()
        for key in keys[n:]:
            cache.get(key)
        t3 = time.perf_counter()
    return {"put_us": (t1 - t0) / n * 1e6, "hit_us": (t2 - t1) / n * 1e6,
            "miss_us": (t3 - t2) / n * 1e6}


def _cache_roundtrip_result(repeats: int) -> BenchResult:
    """``apps.cache_roundtrip``: what keeping a sweep point on disk
    costs beside what recomputing it costs, both in this run.  Each
    operation's best of ``repeats`` fresh directories;
    ``cost_vs_compute`` is ``(put_us + miss_us) / us_per_point``: the
    disk work a written miss adds, per point of compute a later disk
    hit would save.  Gated by no floor."""
    import os

    rounds = [_cache_roundtrip() for _ in range(repeats)]
    best = {op: min(r[op] for r in rounds) for op in rounds[0]}
    points = run_bench("apps.sweep_point_cold", _sweep_point_cold, repeats)
    us_per_point = points.wall_s / points.ops * 1e6
    wall_s = sum(best.values()) * 1e-6
    extras: dict[str, Any] = {
        **best,
        "us_per_point": us_per_point,
        "cost_vs_compute": (best["put_us"] + best["miss_us"]) / us_per_point,
        "host_cpus": float(os.cpu_count() or 1),
        "units": {"put_us": "us", "hit_us": "us", "miss_us": "us",
                  "us_per_point": "us", "cost_vs_compute": "ratio",
                  "host_cpus": "count"},
        "better": {"put_us": "lower", "hit_us": "lower", "miss_us": "lower",
                   "us_per_point": "lower", "cost_vs_compute": "lower",
                   "host_cpus": "higher"},
    }
    return BenchResult(
        name="apps.cache_roundtrip",
        ops=3,
        wall_s=wall_s,
        ops_per_s=3 / wall_s,
        repeats=repeats,
        peak_rss_bytes=peak_rss_bytes(),
        extras=extras,
    )


def _apps_bodies(
    repeats: int, quick: bool
) -> list[tuple[str, Callable[[], BenchResult]]]:
    """(name, run) rows for the apps suite.

    The HPL run dominates; a fresh study per call keeps the executor
    memo cold across repeats (what a user's first run experiences).
    The sweep benches are cheap, so they keep real repeats even in
    quick mode — best-of-1 wall clock is not comparable to best-of-N.
    ``apps.sweep_point_cold`` records ``us_per_point`` for one
    off-grid point and its same-run ``speedup_vs_scalar``;
    ``apps.cache_roundtrip`` sets a result-cache round trip beside it.
    """
    hpl_reps = 1 if quick else max(1, repeats - 1)
    return [
        ("apps.hpl96_headline",
         lambda: run_bench("apps.hpl96_headline", _hpl96, hpl_reps, False)),
        ("apps.fig3_sweep",
         lambda: run_bench("apps.fig3_sweep", _fig3_sweep, max(repeats, 3))),
        ("apps.fig6_grid",
         lambda: _vs_oracle("apps.fig6_grid", _fig6_grid, max(repeats, 2))),
        ("apps.figure7",
         lambda: _vs_oracle("apps.figure7", _figure7, max(repeats, 3))),
        ("apps.sweep_point_cold",
         lambda: _sweep_point_cold_result(max(repeats, 3))),
        ("apps.cache_roundtrip",
         lambda: _cache_roundtrip_result(max(repeats, 3))),
    ]


def apps_suite(repeats: int = 3, quick: bool = False) -> list[BenchResult]:
    return [run() for _, run in _apps_bodies(repeats, quick)]


# ---------------------------------------------------------------------------
# Campaign end-to-end benchmarks (BENCH_campaign.json)
# ---------------------------------------------------------------------------

def campaign_suite_with_ref(
    repeats: int = 1, quick: bool = False
) -> tuple[list[BenchResult], dict[str, float]]:
    """Serial oracle vs cold-cache vs warm-cache quick campaign, and
    the per-run floor (:func:`_warm_cpu_result`).

    Three end-to-end runs of the Figures 3/4/6 + headline campaign at
    quick scale, back to back in this process: the serial oracle
    (:meth:`MobileSoCStudy.run_all`), the campaign runner on a *cold*
    result cache (every unit computed and written), and the same runner
    again on the cache the cold run just filled.  The serial entry
    carries ``speedup_vs_seed`` against the recorded seed serial run
    (:data:`SEED_OPS_PER_S`, the pre-vectorization wall clock — the
    >=5x acceptance gate's numerator); each cached entry carries it
    against *this* run's serial wall clock.  ``repeats`` is ignored:
    these are whole-campaign runs, best-of-1 by construction.
    """
    import contextlib
    import io
    import tempfile

    from repro.cli import main as cli_main
    from repro.core.study import MobileSoCStudy
    from repro.parallel.runner import run_campaign

    def _serial() -> int:
        MobileSoCStudy().run_all(quick=True)
        return 1

    serial = run_bench("campaign.quick_serial", _serial, 1, warmup=False)
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as td:

        def _cached() -> int:
            run_campaign(quick=True, cache_dir=td)
            return 1

        cold = run_bench(
            "campaign.quick_cold_cache", _cached, 1, warmup=False
        )
        warm = run_bench(
            "campaign.quick_warm_cache", _cached, 1, warmup=False
        )
        # The library runs above fill the unit cache only; one
        # ``repro all`` adds the campaign output a warm run prints.
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(["all", "--quick", "--cache-dir", td])
        warm_cpu = _warm_cpu_result(td, runs=1 if quick else 3)
    ref = serial.ops_per_s
    return [serial, cold, warm, warm_cpu], {
        "campaign.quick_serial": SEED_OPS_PER_S["campaign"][
            "campaign.quick_serial"
        ],
        "campaign.quick_cold_cache": ref,
        "campaign.quick_warm_cache": ref,
    }


def _warm_cpu_result(cache_dir: str, runs: int) -> BenchResult:
    """``campaign.warm_cpu_ms``: the CPU time of one ``python -m repro
    all --quick`` process on a result cache a ``repro all --quick``
    already filled — interpreter start, the light imports, the code
    fingerprint and one cache read of the whole output, no unit
    computed and nothing rendered: the floor a warm run pays.  Best of
    ``runs`` processes; recorded with its unit, direction and the
    host's core count, and gated by no floor."""
    import os
    import resource
    import subprocess
    import sys
    import time

    cpus, walls = [], []
    for _ in range(runs):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "repro", "all", "--quick",
             "--cache-dir", cache_dir],
            capture_output=True, text=True, check=True,
        ).stdout
        walls.append(time.perf_counter() - t0)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if "(100% hit rate)" not in out:
            raise RuntimeError("campaign.warm_cpu_ms: a unit missed the cache")
        cpus.append(
            after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
        )
    best = min(range(runs), key=cpus.__getitem__)
    return BenchResult(
        name="campaign.warm_cpu_ms",
        ops=1,
        wall_s=walls[best],
        ops_per_s=1.0 / walls[best],
        repeats=runs,
        peak_rss_bytes=peak_rss_bytes(),
        extras={
            "cpu_ms": cpus[best] * 1e3,
            "host_cpus": float(os.cpu_count() or 1),
            "units": {"cpu_ms": "ms", "host_cpus": "count"},
            "better": {"cpu_ms": "lower", "host_cpus": "higher"},
        },
    )


# ---------------------------------------------------------------------------
# Serving end-to-end benchmarks (BENCH_serve.json)
# ---------------------------------------------------------------------------

def serve_suite_with_ref(
    repeats: int = 1, quick: bool = False
) -> tuple[list[BenchResult], dict[str, float]]:
    """Serving end to end: open-loop cold/warm, saturation, scaling.

    Boots the JSON-lines TCP server in-process (real work units, real
    result cache) and drives it with the seeded open-loop generator
    twice back-to-back: once against a *cold* cache (misses dominate:
    computed on the read path or the executor thread) and once
    against the cache the cold pass just filled (coalesce + cache hits
    dominate).  Each record's ops are completed requests, ops/s is
    delivered throughput, and the extras carry the tail latencies and
    hit ratio — the numbers the acceptance gate reads off
    BENCH_serve.json.  The warm entry's ``speedup_vs_seed`` is measured
    against the cold pass, mirroring the campaign suite's serial-vs-
    cached idiom.

    The open-loop entries *cannot* measure capacity — whenever the
    server keeps up they report ~offered rate, cold and warm alike
    (the pre-fix BENCH_serve showed ~1000 ops/s for both passes while
    the warm p99 was 0.22 ms).  ``serve.saturation`` closes the loop:
    :func:`~repro.serve.loadtest.run_saturation` ramps the offered
    rate against the warm server until the tail degrades, and its
    ``ops_per_s`` IS ``max_sustainable_ops_per_s``.

    ``serve.cluster{1,2,4}`` run the same saturation probe through the
    shipped ``repro cluster-serve`` CLI (router + N backend
    subprocesses), recording per-backend hit ratios and
    ``scaling_vs_1``.  The proxied scaling
    factor is recorded honestly, not gated: the single-process router
    is itself on the data path, so ``scaling_vs_1`` sits near 1.0 by
    construction.  ``serve.cluster4_direct`` is the entry that *is*
    gated: the same 4-backend cluster probed over the ring client's
    direct data path (``run_saturation(direct=True)`` —
    ring-aware clients, router off the query path), whose
    ``scaling_vs_1`` against the 1-backend proxied ceiling must clear
    the 1.5x floor baked into benchmarks/perf/baseline.json.
    ``repeats`` is ignored throughout: whole-service runs, best-of-1
    by construction.

    ``serve.hot_during_sims`` boots ``repro serve`` and records the
    hot-hit tail while a burst of large simulations computes
    (:func:`_hot_during_sims_result`).
    """
    import asyncio
    import tempfile

    from repro.serve.frontend import CampaignFrontEnd, ServeConfig
    from repro.serve.loadtest import run_loadtest_fleet, run_saturation
    from repro.serve.server import ServeServer

    n_requests = 400 if quick else 1500
    rate = 800.0 if quick else 1000.0
    # The hot-value LRU lifted the single-process ceiling past the old
    # quick ramp's top step (8 k offered): 7 quick steps reach 32 k so
    # neither wire's ceiling is clipped by ramp exhaustion.
    sat_kw = dict(
        seed=0,
        connections=2 if quick else 4,
        start_rate=500.0,
        growth=2.0,
        step_seconds=0.25 if quick else 0.5,
        max_steps=7 if quick else 9,
    )

    async def _drive(cache_dir) -> tuple[dict, dict, dict, dict]:
        server = ServeServer(
            CampaignFrontEnd(ServeConfig(cache_dir=cache_dir))
        )
        await server.start()
        run_task = asyncio.ensure_future(server.serve_until_shutdown())
        cold = await run_loadtest_fleet(
            "127.0.0.1", server.port, n_requests=n_requests, rate=rate,
            seed=0, connections=2,
        )
        warm = await run_loadtest_fleet(
            "127.0.0.1", server.port, n_requests=n_requests, rate=rate,
            seed=0, connections=2,
        )
        saturation = await run_saturation(
            "127.0.0.1", server.port, **sat_kw
        )
        # Same warm server, same ramp, binary1 framing: the pair is the
        # controlled comparison the serve.saturation_binary gate reads.
        saturation_bin = await run_saturation(
            "127.0.0.1", server.port, wire="binary", **sat_kw
        )
        server.request_shutdown()
        await run_task
        return cold, warm, saturation, saturation_bin

    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as td:
        cold, warm, saturation, saturation_bin = asyncio.run(_drive(td))

    def result(name: str, report: dict) -> BenchResult:
        extras = {"hit_ratio": report["hit_ratio"]}
        for key in ("p50_latency_s", "p99_latency_s"):
            if key in report:
                extras[key] = report[key]
        return BenchResult(
            name=name,
            ops=report["completed"],
            wall_s=report["wall_s"],
            ops_per_s=report["throughput_rps"],
            repeats=1,
            peak_rss_bytes=peak_rss_bytes(),
            extras=extras,
        )

    sat_completed = sum(s["completed"] for s in saturation["steps"])
    results = [
        result("serve.loadtest_cold", cold),
        result("serve.loadtest_warm", warm),
        BenchResult(
            name="serve.saturation",
            ops=sat_completed,
            wall_s=(
                sat_completed / saturation["max_sustainable_ops_per_s"]
                if saturation["max_sustainable_ops_per_s"] else 0.0
            ),
            ops_per_s=saturation["max_sustainable_ops_per_s"],
            repeats=1,
            peak_rss_bytes=peak_rss_bytes(),
            extras={
                "saturated": saturation["saturated"],
                "steps": len(saturation["steps"]),
                "sustained_p99_s": saturation["sustained_p99_s"],
            },
        ),
    ]
    sat_bin_completed = sum(s["completed"] for s in saturation_bin["steps"])
    results.append(BenchResult(
        name="serve.saturation_binary",
        ops=sat_bin_completed,
        wall_s=(
            sat_bin_completed / saturation_bin["max_sustainable_ops_per_s"]
            if saturation_bin["max_sustainable_ops_per_s"] else 0.0
        ),
        ops_per_s=saturation_bin["max_sustainable_ops_per_s"],
        repeats=1,
        peak_rss_bytes=peak_rss_bytes(),
        extras={
            "saturated": saturation_bin["saturated"],
            "steps": len(saturation_bin["steps"]),
            "sustained_p99_s": saturation_bin["sustained_p99_s"],
            "wire": "binary1",
            "vs_json": (
                saturation_bin["max_sustainable_ops_per_s"]
                / saturation["max_sustainable_ops_per_s"]
                if saturation["max_sustainable_ops_per_s"] else 0.0
            ),
        },
    ))
    cluster_base = 0.0
    for n_backends, direct, wire in (
        (1, False, "json"), (2, False, "json"), (4, False, "json"),
        (4, True, "json"), (4, True, "binary"),
    ):
        entry = _cluster_saturation_result(
            n_backends, quick, sat_kw, peak_rss_bytes, direct=direct, wire=wire
        )
        cluster_base = cluster_base or entry.ops_per_s or 1.0
        entry.extras["scaling_vs_1"] = entry.ops_per_s / cluster_base
        results.append(entry)
    results.append(_hot_during_sims_result(peak_rss_bytes))
    return results, {"serve.loadtest_warm": cold["throughput_rps"]}


def _hot_during_sims_result(peak_rss_bytes) -> BenchResult:
    """``serve.hot_during_sims``: the hot-hit tail while simulations
    compute.  Boots ``repro serve`` on a fresh cache, warms one hot key,
    fires a burst of the largest Figure 6 points (every application at
    48/64/96 nodes) plus two headlines, and probes the hot key back to
    back until the burst has answered.  Records the hot-hit p50/p99
    while the burst computes, the burst's wall time and the probe
    count; ``ops_per_s`` is burst units per second.  Not gated: the
    numbers depend on the host's cores."""
    import asyncio
    import json
    import os
    import tempfile
    import time

    from repro.apps import APPLICATIONS
    from repro.serve.frontend import percentile

    hot = {"kind": "sweep_point",
           "params": {"mode": "single", "platform": "Tegra2", "freq": 1.0}}
    burst = [
        {"kind": "fig6_point", "params": {"app": app, "n": n, "max_nodes": 96}}
        for app in APPLICATIONS for n in (48, 64, 96)
    ] + [{"kind": "headline", "params": {"n_nodes": n}} for n in (64, 96)]

    def line(doc: dict, rid: int = 1) -> bytes:
        return (json.dumps({"op": "query", "id": rid, **doc}) + "\n").encode()

    async def answer(reader, n: int = 1) -> None:
        for _ in range(n):
            if not json.loads(await reader.readline()).get("ok"):
                raise RuntimeError("serve.hot_during_sims: a query failed")

    async def _drive(port: int) -> tuple[list[float], float]:
        hot_r, hot_w = await asyncio.open_connection("127.0.0.1", port)
        hot_w.write(line(hot))  # computed once; a hot hit from here on
        await answer(hot_r)
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        t0 = time.perf_counter()
        writer.write(b"".join(line(q, i) for i, q in enumerate(burst)))
        answered = asyncio.ensure_future(answer(reader, len(burst)))
        latencies = []
        while not answered.done():
            t = time.perf_counter()
            hot_w.write(line(hot))
            await answer(hot_r)
            latencies.append(time.perf_counter() - t)
        await answered
        wall = time.perf_counter() - t0
        hot_w.close()
        writer.close()
        return latencies, wall

    with tempfile.TemporaryDirectory(prefix="repro-bench-hot-") as td:
        proc, port = _spawn_listening(
            ["serve", "--port", "0", "--no-jobs", "--cache-dir", td],
            "repro serve",
        )
        try:
            latencies, wall = asyncio.run(_drive(port))
        finally:
            _stop(proc)  # SIGTERM: the same graceful drain as shutdown
    extras: dict[str, Any] = {
        "hot_p50_ms": percentile(latencies, 0.50) * 1e3,
        "hot_p99_ms": percentile(latencies, 0.99) * 1e3,
        "burst_wall_s": wall,
        "probes": float(len(latencies)),
        "host_cpus": float(os.cpu_count() or 1),
        "units": {"hot_p50_ms": "ms", "hot_p99_ms": "ms",
                  "burst_wall_s": "s", "probes": "count",
                  "host_cpus": "count"},
    }
    return BenchResult(
        name="serve.hot_during_sims",
        ops=len(burst),
        wall_s=wall,
        ops_per_s=len(burst) / wall,
        repeats=1,
        peak_rss_bytes=peak_rss_bytes(),
        extras=extras,
    )


def _spawn_listening(argv: list[str], tag: str):
    """Start ``python -m repro <argv>`` and wait for its ``<tag>:
    listening on HOST:PORT`` readiness line: ``(process, port)``."""
    import re
    import subprocess
    import sys

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    ready = re.compile(re.escape(tag) + r": listening on [^:]+:(\d+)")
    for line in iter(proc.stdout.readline, ""):
        m = ready.search(line)
        if m:
            return proc, int(m.group(1))
    _stop(proc)
    raise RuntimeError(f"{' '.join(argv[:3])} died before readiness")


def _stop(proc) -> None:
    """Terminate ``proc`` if it is still running (kill after 10 s)."""
    import subprocess

    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


async def _one_op(host: str, port: int, doc: dict) -> dict:
    """One JSON-lines request on a fresh connection; its response."""
    import asyncio
    import json

    reader, writer = await asyncio.open_connection(host, port)
    writer.write((json.dumps({"id": 1, **doc}) + "\n").encode())
    await writer.drain()
    response = json.loads(await reader.readline())
    writer.close()
    await writer.wait_closed()
    return response


def _cluster_saturation_result(
    n_backends: int, quick: bool, sat_kw: dict, peak_rss_bytes,
    direct: bool = False, wire: str = "json",
) -> BenchResult:
    """One ``serve.cluster<N>`` entry: boot the shipped
    ``repro cluster-serve`` CLI with N backends, warm the shards with
    open-loop passes through the router, find the data-path ceiling
    with the saturation probe, and read the per-backend hit economics
    off the router's aggregated ``stats`` op before draining.

    ``direct=True`` produces the ``serve.cluster<N>_direct`` variant:
    the warm-up still flows through the router (identical shard cache
    state either way), but the saturation probe runs ring-aware
    clients that route every query straight to its home shard — the
    ring client's data path, whose ceiling is what the
    ``scaling_vs_1 >= 1.5`` baseline gate checks.  ``wire="binary"``
    additionally negotiates the binary1 framing on every shard link
    (the ``_binary`` entry names), probing the same path minus the
    JSON codec."""
    import asyncio
    import tempfile

    from repro.serve.loadtest import run_loadtest_fleet, run_saturation

    warm_requests = 400 if quick else 1200
    with tempfile.TemporaryDirectory(prefix="repro-bench-cluster-") as td:
        proc, port = _spawn_listening(
            ["cluster-serve", "--backends", str(n_backends), "--port", "0",
             "--cache-dir", td],
            "cluster-serve",
        )
        try:
            async def _drive() -> tuple[dict, dict, dict]:
                # Warm every shard's cache via the router, then probe
                # the ceiling on the warm path.
                await run_loadtest_fleet(
                    "127.0.0.1", port, n_requests=warm_requests,
                    rate=800.0, seed=0, connections=2,
                )
                warm = await run_loadtest_fleet(
                    "127.0.0.1", port, n_requests=warm_requests,
                    rate=800.0, seed=0, connections=2,
                )
                saturation = await run_saturation(
                    "127.0.0.1", port, direct=direct, wire=wire, **sat_kw
                )
                stats = await _one_op("127.0.0.1", port, {"op": "stats"})
                await _one_op("127.0.0.1", port, {"op": "shutdown"})
                return warm, saturation, stats

            warm, saturation, stats = asyncio.run(_drive())
            proc.wait(timeout=60)
        finally:
            _stop(proc)

    agg = stats.get("stats", {})
    completed = sum(s["completed"] for s in saturation["steps"])
    extras = {
        "backends": n_backends,
        "hit_ratio": warm["hit_ratio"],
        "aggregate_hit_ratio": agg.get("hit_ratio", 0.0),
        "per_backend_hit_ratio": agg.get("per_backend_hit_ratio", {}),
        "saturated": saturation["saturated"],
    }
    if direct:
        extras["direct_queries"] = sum(
            s.get("direct_queries", 0) for s in saturation["steps"]
        )
        extras["router_fallbacks"] = sum(
            s.get("router_fallbacks", 0) for s in saturation["steps"]
        )
    if wire == "binary":
        extras["wire"] = "binary1"
    return BenchResult(
        name=f"serve.cluster{n_backends}"
        f"{'_direct' if direct else ''}"
        f"{'_binary' if wire == 'binary' else ''}",
        ops=completed,
        wall_s=(
            completed / saturation["max_sustainable_ops_per_s"]
            if saturation["max_sustainable_ops_per_s"] else 0.0
        ),
        ops_per_s=saturation["max_sustainable_ops_per_s"],
        repeats=1,
        peak_rss_bytes=peak_rss_bytes(),
        extras=extras,
    )


#: Suite name -> ``(repeats, quick) -> (results, seed reference)``; the
#: reference maps benchmark names to the ops/s ``speedup_vs_seed`` is
#: measured against (``None``: the suite makes no speedup claim).
SUITES: dict[
    str,
    Callable[[int, bool], tuple[list[BenchResult], dict[str, float] | None]],
] = {
    "engine": engine_suite_with_seed,
    "mpi": lambda repeats, quick: (mpi_suite(repeats, quick), None),
    "apps": lambda repeats, quick: (apps_suite(repeats, quick), None),
    "campaign": campaign_suite_with_ref,
    "serve": serve_suite_with_ref,
}
