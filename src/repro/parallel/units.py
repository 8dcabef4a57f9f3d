"""Campaign work units: decomposition and execution.

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
caching.  Merge order never depends on list order, only on the
deterministic plans.

Execution keeps a bounded memo of studies (per seed) and clusters (per
``max_nodes``) below, so kernel-timing memoisation amortises across the
units a process executes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any

from repro.apps import APPLICATIONS
from repro.apps.base import AppRunResult
from repro.core.study import (
    FIG6_FULL_COUNTS,
    FIG6_QUICK_COUNTS,
    MobileSoCStudy,
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
    is the exception itself, when there is one to hand back.
    """

    error: str
    exc: Exception | None = field(default=None, compare=False, repr=False)


def campaign_units(quick: bool, cluster, study=None) -> list[WorkUnit]:
    """The full campaign's unit list (simulations first, then sweeps).

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
    plan = (study if study is not None else _plan_study(0)).sweep_plan()
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
# Execution.  One memoized study per seed and one cluster per max_nodes
# keep executor/timing memos warm across units; results stay
# deterministic either way.  Both keys come from queries and job specs,
# so a long-lived server bounds them.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def _plan_study(seed: int) -> MobileSoCStudy:
    return MobileSoCStudy(seed=seed)


@functools.lru_cache(maxsize=8)
def _cluster_for(max_nodes: int):
    from repro.cluster.cluster import tibidabo

    return tibidabo(max_nodes)


def _sweep_args(params: dict[str, Any]) -> tuple[Any, Any, Any]:
    """A ``sweep_point``'s ``(mode, platform, freq)``; a missing one is
    a client error (``ValueError``), like a malformed value."""
    try:
        return params["mode"], params["platform"], params["freq"]
    except KeyError as exc:
        raise ValueError(f"sweep_point needs {exc.args[0]!r}") from None


def _fig6_args(params: dict[str, Any]) -> tuple[Any, int, int]:
    """A ``fig6_point``'s ``(app, n, max_nodes)``; a missing or unknown
    app and a missing, bool or non-int node count are client errors
    (``ValueError``).  The ranges are checked where they are used."""
    name = params.get("app")
    if not isinstance(name, str) or name not in APPLICATIONS:
        raise ValueError(
            f"fig6_point needs 'app' (one of: {', '.join(APPLICATIONS)}), "
            f"got {name!r}"
        )
    n, max_nodes = params.get("n"), params.get("max_nodes")
    for key, count in (("n", n), ("max_nodes", max_nodes)):
        if not isinstance(count, int) or isinstance(count, bool):
            raise ValueError(f"fig6_point needs an int {key!r}, got {count!r}")
    return APPLICATIONS[name], n, max_nodes


def _headline_args(params: dict[str, Any]) -> int:
    """A ``headline``'s ``n_nodes``; a missing, bool or non-int count
    is a client error (``ValueError``)."""
    n_nodes = params.get("n_nodes")
    if not isinstance(n_nodes, int) or isinstance(n_nodes, bool):
        raise ValueError(f"headline needs an int 'n_nodes', got {n_nodes!r}")
    return n_nodes


def execute_unit(kind: str, params: dict[str, Any], seed: int = 0) -> Any:
    """Run one work unit and return its JSON-serialisable value."""
    study = _plan_study(seed)
    if kind == "sweep_base":
        return study.sweep_base_energy()
    if kind == "sweep_point":
        return study.sweep_point(*_sweep_args(params))
    if kind == "fig6_point":
        app, n, max_nodes = _fig6_args(params)
        result = app.simulate(_cluster_for(max_nodes), n)
        return {
            "app": result.app,
            "n_nodes": result.n_nodes,
            "time_s": result.time_s,
            "flops": result.flops,
            "steps": result.steps,
            "comm_fraction": result.comm_fraction,
        }
    if kind == "headline":
        return study.headline_hpl(_headline_args(params))
    raise ValueError(f"unknown work-unit kind {kind!r}")


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
