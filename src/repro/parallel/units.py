"""Campaign work units: decomposition and worker-side execution.

A :class:`WorkUnit` is one independent piece of the paper's campaign:

``sweep_base``
    the Tegra 2 @1 GHz serial baseline energy (Figures 3/4 denominator)
``sweep_point``
    one Figure 3/4 operating point — ``mode`` (single/multi) x
    ``platform`` x ``freq``
``fig6_point``
    one Figure 6 point — ``app`` x ``n`` nodes on a ``max_nodes``
    Tibidabo build
``headline``
    the 96-node HPL headline run

Every unit returns plain JSON-serialisable data (the cache contract),
and its value is a pure function of ``(kind, params, seed)`` plus the
package source — the runner exploits exactly that for content-addressed
caching.  Heavy units are listed first so a pool drains well; merge
order never depends on list order, only on the deterministic plans.

Workers keep one study/cluster per process (module-level memos below),
so kernel-timing memoisation still amortises across the units a worker
happens to execute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.apps import APPLICATIONS
from repro.apps.base import AppRunResult
from repro.core.study import (
    FIG6_FULL_COUNTS,
    FIG6_QUICK_COUNTS,
    MobileSoCStudy,
    _scalar_sweep,
    figure6_counts,
)

SWEEP_MODES = ("single", "multi")


@dataclass(frozen=True)
class WorkUnit:
    """One independent, cacheable piece of the campaign."""

    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind}({inner})"


@dataclass(frozen=True)
class UnitFailure:
    """A unit that raised instead of returning a value.

    Safe execution (``run_units(safe=True)``) returns one of these in
    the failed unit's slot instead of propagating the exception and
    losing the rest of the batch — the job tier needs per-unit failure
    isolation to retry or quarantine exactly the poison unit, and a
    query batch must fail only the bad query.  Never cached.  ``exc``
    is the exception itself, when there is one to hand back (a pool
    worker's exception that does not pickle crosses as text only).
    """

    error: str
    exc: Exception | None = field(default=None, compare=False, repr=False)


def campaign_units(quick: bool, cluster, study=None) -> list[WorkUnit]:
    """The full campaign's unit list (heaviest first, for pool packing).

    ``cluster`` is the Figure 6 Tibidabo build — needed to resolve each
    application's minimum node count exactly the way the serial path
    does.
    """
    counts = FIG6_QUICK_COUNTS if quick else FIG6_FULL_COUNTS
    max_nodes = max(counts)
    units: list[WorkUnit] = [WorkUnit("headline", {"n_nodes": 96})]
    for name, app in APPLICATIONS.items():
        app_counts = figure6_counts(app, cluster, counts)
        if app_counts is None:
            continue
        for n in sorted(app_counts, reverse=True):
            units.append(
                WorkUnit("fig6_point", {"app": name, "n": n, "max_nodes": max_nodes})
            )
    units.append(WorkUnit("sweep_base", {}))
    plan = (study if study is not None else _plan_study()).sweep_plan()
    for mode in SWEEP_MODES:
        for platform, freq in plan:
            units.append(
                WorkUnit(
                    "sweep_point",
                    {"mode": mode, "platform": platform, "freq": freq},
                )
            )
    return units


# ---------------------------------------------------------------------------
# Worker-side execution.  One memoized study per (process, seed) and one
# cluster per (max_nodes) keep executor/timing memos warm across the
# units a worker runs; results stay deterministic either way.
# ---------------------------------------------------------------------------

_studies: dict[int, MobileSoCStudy] = {}
_clusters: dict[int, Any] = {}


def _plan_study(seed: int = 0) -> MobileSoCStudy:
    study = _studies.get(seed)
    if study is None:
        study = _studies[seed] = MobileSoCStudy(seed=seed)
    return study


def _cluster_for(max_nodes: int):
    from repro.cluster.cluster import tibidabo

    cluster = _clusters.get(max_nodes)
    if cluster is None:
        cluster = _clusters[max_nodes] = tibidabo(max_nodes)
    return cluster


def execute_unit(kind: str, params: dict[str, Any], seed: int = 0) -> Any:
    """Run one work unit and return its JSON-serialisable value."""
    study = _plan_study(seed)
    if kind == "sweep_base":
        return study.sweep_base_energy()
    if kind == "sweep_point":
        return study.sweep_point(params["mode"], params["platform"], params["freq"])
    if kind == "fig6_point":
        app = APPLICATIONS[params["app"]]
        result = app.simulate(_cluster_for(params["max_nodes"]), params["n"])
        return {
            "app": result.app,
            "n_nodes": result.n_nodes,
            "time_s": result.time_s,
            "flops": result.flops,
            "steps": result.steps,
            "comm_fraction": result.comm_fraction,
        }
    if kind == "headline":
        return study.headline_hpl(params["n_nodes"])
    raise ValueError(f"unknown work-unit kind {kind!r}")


def execute_batch(
    batch: list[WorkUnit], seed: int = 0, safe: bool = False
) -> Iterator[tuple[int, Any]]:
    """Run ``batch`` in this process, yielding ``(index, value)`` as
    each value resolves, so a caller can cache every unit the moment it
    is done (a cached unit is the campaign's checkpoint).

    Every kind but ``sweep_point`` runs through :func:`execute_unit`,
    one unit at a time in batch order.  The ``sweep_point`` units are
    then grouped into one :meth:`MobileSoCStudy.sweep_points` call per
    mode — bit-identical to running them one by one through
    :func:`execute_unit`, which is what ``REPRO_SCALAR_SWEEP=1`` still
    does (the scalar oracle).

    ``safe=True`` yields a :class:`UnitFailure` for a failed unit
    instead of raising; when a grouped sweep call raises, each of its
    units is re-run alone, so only the bad ones fail.
    """

    def one(unit: WorkUnit) -> Any:
        if not safe:
            return execute_unit(unit.kind, unit.params, seed)
        try:
            return execute_unit(unit.kind, unit.params, seed)
        except Exception as exc:  # noqa: BLE001 - per-unit containment
            return UnitFailure(f"{type(exc).__name__}: {exc}", exc)

    by_mode: dict[Any, list[int]] = {}
    for i, unit in enumerate(batch):
        if unit.kind == "sweep_point" and not _scalar_sweep():
            by_mode.setdefault(unit.params.get("mode"), []).append(i)
        else:
            yield i, one(unit)
    for mode, idxs in by_mode.items():
        try:
            points = [
                (batch[i].params["platform"], batch[i].params["freq"])
                for i in idxs
            ]
            values = _plan_study(seed).sweep_points(mode, points)
        except Exception:
            values = [one(batch[i]) for i in idxs]
        yield from zip(idxs, values)


def pool_entry(job: tuple[str, dict[str, Any], int]) -> Any:
    """Top-level pool target (picklable under any start method)."""
    kind, params, seed = job
    return execute_unit(kind, params, seed)


def app_run_result(value: dict[str, Any]) -> AppRunResult:
    """Rehydrate a ``fig6_point`` unit value (possibly from the JSON
    cache) into the dataclass the scaling-study maths expects."""
    return AppRunResult(
        app=value["app"],
        n_nodes=int(value["n_nodes"]),
        time_s=value["time_s"],
        flops=value["flops"],
        steps=int(value["steps"]),
        comm_fraction=value["comm_fraction"],
    )
