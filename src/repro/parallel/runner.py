"""The campaign runner: one in-process path plus a deterministic merge.

Execution model
---------------

1. Build the unit plan (:func:`repro.parallel.units.campaign_units`).
2. Probe the result cache, when there is one, for every unit in one
   batched read.
3. Execute the misses in this process through
   :func:`repro.parallel.units.execute_batch` (sweep points grouped
   into one ``sweep_points`` call per mode), caching each value as it
   resolves.
4. Merge by *plan order*: platform order is the catalog's, frequency
   order the DVFS table's, Figure 6 order the application registry's.
   The merged dict is byte-identical (through ``json.dumps``) to
   :meth:`MobileSoCStudy.run_all`, the serial oracle.

The cheap artefacts (figures 1/2/5/7, the tables, the outlooks) are
computed directly by the study and are not units.  They are cached
only as part of ``repro all``'s whole rendered output, one more cache
object that the CLI (:func:`repro.cli._all_cmd`) stores after this
runner's campaign.  A run that finds that object prints it without
importing this module, the study or numpy.

:func:`run_units` is also the serve front end's execution path for
its simulation and job batches (DESIGN.md section 11).  Nothing in
this package forks a worker.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.parallel.cache import MISS, CacheStats, ResultCache, unit_key
from repro.parallel.units import (
    UnitFailure,
    WorkUnit,
    app_run_result,
    campaign_units,
    execute_batch,
)


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
    cache: ResultCache | None = None,
    seed: int = 0,
    safe: bool = False,
    write: bool = True,
) -> list[Any]:
    """Execute ``units``, returning their values in input order.

    Cache hits are resolved first; only misses are computed.  They run
    in this process through :func:`~repro.parallel.units.execute_batch`
    (sweep points grouped into one ``sweep_points`` call per mode), and each
    fresh value is written to ``cache`` as soon as it arrives, so an
    interrupted run keeps every unit already finished.

    ``safe=True`` captures each unit's exception as a
    :class:`UnitFailure` in its slot (never cached) instead of raising
    and discarding the batch.  ``write=False`` only probes ``cache``:
    the caller writes the values (the serve job tier's checkpoints).
    """
    values, todo = probe_units(units, cache, seed)
    if not todo:
        return values
    for j, value in execute_batch([units[i] for i in todo], seed, safe=safe):
        i = todo[j]
        values[i] = value
        if write and cache is not None and not isinstance(value, UnitFailure):
            cache.put(
                unit_key(units[i].kind, units[i].params, seed),
                value,
                kind=units[i].kind,
            )
    return values


@dataclass
class CampaignReport:
    """A merged campaign plus the execution telemetry around it."""

    results: dict[str, Any]
    quick: bool
    wall_s: float
    n_units: int
    cache_stats: CacheStats = field(default_factory=CacheStats)
    cache_dir: Path | None = None

    def describe(self) -> str:
        lines = [
            f"campaign: {self.n_units} work units in {self.wall_s:.2f} s"
            + (" [quick]" if self.quick else "")
        ]
        if self.cache_dir is not None:
            lines.append(
                f"cache {self.cache_dir}: {self.cache_stats.describe()}"
            )
        return "\n".join(lines)


def run_campaign(
    quick: bool = False,
    cache_dir: str | Path | None = None,
    study=None,
) -> CampaignReport:
    """Run the full campaign; see the module docstring.

    ``cache_dir`` names the result cache to read and fill (``None``:
    no cache).  ``study`` (optional) supplies the seed, computes the
    cheap artefacts, and gets its figure memos pre-seeded so later
    rendering of figures 3/4/6 and the headline is free.
    """
    from repro.cluster.cluster import tibidabo
    from repro.core.study import (
        FIG6_FULL_COUNTS,
        FIG6_QUICK_COUNTS,
        MobileSoCStudy,
    )

    t0 = time.perf_counter()
    study = study if study is not None else MobileSoCStudy()
    counts = FIG6_QUICK_COUNTS if quick else FIG6_FULL_COUNTS
    cluster = tibidabo(max(counts))
    units = campaign_units(quick, cluster, study)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    values = run_units(units, cache=cache, seed=study.seed)
    results = _merge_campaign(study, cluster, counts, units, values)
    return CampaignReport(
        results=results,
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
    from repro.core.study import HEADLINE_KEYS, figure6_counts

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

    cached_headline = lookup("headline", n_nodes=96)
    headline = {key: cached_headline[key] for key in HEADLINE_KEYS}

    # Pre-seed the study's memos so rendering after the campaign reuses
    # the merged results instead of recomputing them.
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
