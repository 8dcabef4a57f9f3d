"""The sharded campaign runner: pool execution + deterministic merge.

Execution model
---------------

1. Build the unit plan (:func:`repro.parallel.units.campaign_units`).
2. Probe the result cache for every unit in the parent — single reader
   and single writer, so no cross-process cache locking is needed.
3. Run the misses across a ``multiprocessing`` pool (``chunksize=1``;
   heavy units are listed first so workers drain evenly).  ``jobs=1``
   executes misses in-process, with the sweep points grouped into one
   vectorized call per mode (:func:`repro.parallel.units.execute_batch`).
4. Merge by *plan order*, never completion order: platform order is the
   catalog's, frequency order the DVFS table's, Figure 6 order the
   application registry's.  The merged dict is byte-identical (through
   ``json.dumps``) to :meth:`MobileSoCStudy.run_all` serial output.

The cheap artefacts (figures 1/2/5/7, the tables, the outlooks) are
computed directly in the parent — they cost microseconds and some carry
non-JSON-serialisable points, so sharding or caching them would buy
nothing and complicate the cache contract.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.parallel.cache import (
    DEFAULT_CACHE_DIR,
    MISS,
    CacheStats,
    ResultCache,
    unit_key,
)
from repro.parallel.units import (
    UnitFailure,
    WorkUnit,
    app_run_result,
    campaign_units,
    execute_batch,
    pool_entry,
)


def safe_pool_entry(job: tuple[str, dict[str, Any], int]) -> Any:
    """Pool target that captures per-unit exceptions as data (a raised
    exception in ``pool.map`` poisons the whole batch): the value, or a
    :class:`UnitFailure` carrying the exception when it survives a
    pickle round trip (else its text only)."""
    try:
        return pool_entry(job)
    except Exception as exc:  # noqa: BLE001 - the point is containment
        error = f"{type(exc).__name__}: {exc}"
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:  # noqa: BLE001 - an exception that won't travel
            return UnitFailure(error)
        return UnitFailure(error, exc)


def _pool_context(start_method: str | None = None):
    """The multiprocessing context for a worker pool.

    ``start_method`` picks the context explicitly; otherwise the
    ``REPRO_START_METHOD`` environment variable does, and failing both
    we prefer ``fork`` (workers inherit warm imports) with a fall back
    to the platform default (``spawn`` on macOS/Windows).  The campaign
    is correct — byte-identical — under every method: work units are
    pure functions of ``(kind, params, seed)`` plus the package source,
    so a freshly spawned interpreter computes the same bits a forked
    one inherits.  An unavailable method raises ``ValueError`` naming
    the platform's choices instead of failing inside the pool.
    """
    if start_method is None:
        start_method = os.environ.get("REPRO_START_METHOD") or None
    methods = multiprocessing.get_all_start_methods()
    if start_method is None:
        start_method = "fork" if "fork" in methods else None
    elif start_method not in methods:
        raise ValueError(
            f"start method {start_method!r} unavailable on this platform "
            f"(choices: {', '.join(methods)})"
        )
    return multiprocessing.get_context(start_method)


def probe_units(
    units: list[WorkUnit],
    cache: ResultCache | None,
    seed: int = 0,
) -> tuple[list[Any], list[int]]:
    """Resolve whatever the cache already holds: ``(values, todo)``
    where ``values`` carries the hits in unit order (misses ``None``)
    and ``todo`` lists the miss indices.  One batched probe
    (:meth:`ResultCache.get_many`), not a per-unit ``get`` — this is
    also the job tier's restart-resume hook: completed units land in
    the cache, so the probe *is* the checkpoint read."""
    values: list[Any] = [None] * len(units)
    if cache is None:
        return values, list(range(len(units)))
    hits = cache.get_many(
        [unit_key(u.kind, u.params, seed) for u in units]
    )
    todo: list[int] = []
    for i, hit in enumerate(hits):
        if hit is MISS:
            todo.append(i)
        else:
            values[i] = hit
    return values, todo


def run_units(
    units: list[WorkUnit],
    jobs: int = 1,
    cache: ResultCache | None = None,
    seed: int = 0,
    start_method: str | None = None,
    pool=None,
    safe: bool = False,
) -> list[Any]:
    """Execute ``units``, returning their values in input order.

    Cache hits are resolved in the parent; only misses are computed.
    A single miss, or any number with ``jobs=1`` and no ``pool``, runs
    in this process through :func:`~repro.parallel.units.execute_batch`
    (sweep points grouped into one vectorized call per mode).  Otherwise
    the misses go to ``pool`` — a caller-owned worker pool, which a
    long-lived caller must fork while still single-threaded, because
    forking from a threaded process can hand workers a lock some other
    thread held at fork time — or to a pool of ``jobs`` workers created
    for this call.

    Either way each fresh value is written to ``cache`` as soon as it
    arrives, so an interrupted run keeps every unit already finished.

    ``safe=True`` captures each unit's exception as a
    :class:`UnitFailure` in its slot (never cached) instead of raising
    and discarding the batch.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    values, todo = probe_units(units, cache, seed)
    if not todo:
        return values
    own_pool = None
    if len(todo) == 1 or (pool is None and jobs == 1):
        fresh = execute_batch([units[i] for i in todo], seed, safe=safe)
    else:
        if pool is None:
            pool = own_pool = _pool_context(start_method).Pool(
                min(jobs, len(todo))
            )
        jobs_args = [(units[i].kind, units[i].params, seed) for i in todo]
        entry = safe_pool_entry if safe else pool_entry
        fresh = enumerate(pool.imap(entry, jobs_args, chunksize=1))
    try:
        for j, value in fresh:
            i = todo[j]
            values[i] = value
            if cache is not None and not isinstance(value, UnitFailure):
                cache.put(
                    unit_key(units[i].kind, units[i].params, seed),
                    value,
                    kind=units[i].kind,
                )
    finally:
        if own_pool is not None:
            own_pool.close()
            own_pool.join()
    return values


@dataclass
class CampaignReport:
    """A merged campaign plus the execution telemetry around it."""

    results: dict[str, Any]
    jobs: int
    quick: bool
    wall_s: float
    n_units: int
    cache_stats: CacheStats = field(default_factory=CacheStats)
    cache_dir: Path | None = None

    def describe(self) -> str:
        lines = [
            f"campaign: {self.n_units} work units in {self.wall_s:.2f} s "
            f"with {self.jobs} worker(s)"
            + (" [quick]" if self.quick else "")
        ]
        if self.cache_dir is not None:
            lines.append(
                f"cache {self.cache_dir}: {self.cache_stats.describe()}"
            )
        return "\n".join(lines)


def run_campaign(
    quick: bool = False,
    jobs: int = 2,
    cache_dir: str | Path | None = DEFAULT_CACHE_DIR,
    study=None,
    seed: int | None = None,
    start_method: str | None = None,
) -> CampaignReport:
    """Run the full campaign sharded; see the module docstring.

    ``study`` (optional) supplies the seed, computes the cheap
    in-parent artefacts, and gets its figure memos pre-seeded so later
    rendering of figures 3/4/6 and the headline is free.
    """
    from repro.cluster.cluster import tibidabo
    from repro.core.study import (
        FIG6_FULL_COUNTS,
        FIG6_QUICK_COUNTS,
        MobileSoCStudy,
    )

    t0 = time.perf_counter()
    if study is None:
        study = MobileSoCStudy(seed=seed if seed is not None else 0)
    elif seed is not None and seed != study.seed:
        raise ValueError("seed disagrees with the supplied study's")
    counts = FIG6_QUICK_COUNTS if quick else FIG6_FULL_COUNTS
    cluster = tibidabo(max(counts))
    units = campaign_units(quick, cluster, study)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    values = run_units(
        units, jobs=jobs, cache=cache, seed=study.seed,
        start_method=start_method,
    )
    results = _merge_campaign(study, cluster, counts, units, values)
    return CampaignReport(
        results=results,
        jobs=jobs,
        quick=quick,
        wall_s=time.perf_counter() - t0,
        n_units=len(units),
        cache_stats=cache.stats if cache is not None else CacheStats(),
        cache_dir=Path(cache_dir) if cache_dir is not None else None,
    )


def _merge_campaign(
    study,
    cluster,
    counts: tuple[int, ...],
    units: list[WorkUnit],
    values: list[Any],
) -> dict[str, Any]:
    """Assemble the ``run_all``-shaped dict from unit values, in the
    exact order and with the exact arithmetic of the serial path."""
    from repro.apps import APPLICATIONS, ScalingStudy
    from repro.core.study import figure6_counts

    by: dict[tuple[str, tuple], Any] = {
        (u.kind, tuple(sorted(u.params.items()))): v
        for u, v in zip(units, values)
    }

    def lookup(kind: str, **params: Any) -> Any:
        return by[(kind, tuple(sorted(params.items())))]

    base_energy = lookup("sweep_base")
    figures34: dict[str, dict[str, list[dict[str, float]]]] = {}
    for figure, mode in (("figure3", "single"), ("figure4", "multi")):
        out: dict[str, list[dict[str, float]]] = {}
        for name, platform in study.platforms.items():
            series = []
            for freq in platform.soc.dvfs.frequencies():
                pt = lookup("sweep_point", mode=mode, platform=name, freq=freq)
                series.append(
                    {
                        "freq_ghz": pt["freq_ghz"],
                        "speedup": pt["speedup"],
                        "energy_norm": pt["energy_j"] / base_energy,
                    }
                )
            out[name] = series
        figures34[figure] = out

    figure6: dict[str, dict[int, float]] = {}
    max_nodes = max(counts)
    for name, app in APPLICATIONS.items():
        app_counts = figure6_counts(app, cluster, counts)
        if app_counts is None:
            continue
        scaling = ScalingStudy(app, cluster, node_counts=app_counts)
        for n in app_counts:
            scaling.results[n] = app_run_result(
                lookup("fig6_point", app=name, n=n, max_nodes=max_nodes)
            )
        figure6[name] = scaling.speedups()

    headline = lookup("headline", n_nodes=96)

    # Pre-seed the study's memos so rendering after the campaign reuses
    # the sharded results instead of recomputing serially.
    study._results_memo[("figure3",)] = figures34["figure3"]
    study._results_memo[("figure4",)] = figures34["figure4"]
    study._results_memo[("figure6", tuple(counts))] = figure6
    study._results_memo[("headline_hpl", 96)] = headline

    return {
        "figure1": study.figure1(),
        "figure2a": study.figure2a(),
        "figure2b": study.figure2b(),
        "table1": study.table1(),
        "table2": study.table2(),
        "figure3": figures34["figure3"],
        "figure4": figures34["figure4"],
        "figure5": study.figure5(),
        "figure6": figure6,
        "figure7": study.figure7(),
        "table4": study.table4(),
        "headline_hpl": headline,
        "latency_penalties": study.latency_penalties(),
        "armv8_outlook": study.armv8_outlook(),
    }
