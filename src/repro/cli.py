"""Command-line interface: regenerate any artefact of the paper.

Usage::

    python -m repro table1            # platforms under evaluation
    python -m repro table2            # the kernel suite
    python -m repro table3            # the applications
    python -m repro table4            # bytes/FLOPS balance
    python -m repro fig1 ... fig7     # figure series (text + ASCII chart)
    python -m repro headline          # 97 GFLOPS / 51% / 120 MFLOPS/W
    python -m repro features          # Section 6.3 readiness matrix
    python -m repro stack             # Figure 8 software stack
    python -m repro energy            # the [13] energy-to-solution study
    python -m repro compare           # all paper-vs-measured claims
    python -m repro all               # everything above, in one process
    python -m repro all --cache-dir .repro-cache  # ... through the result cache

Observability (see :mod:`repro.obs`)::

    python -m repro trace hpl                    # per-rank table + hash
    python -m repro trace pingpong --out pp.json # Chrome trace for Perfetto
    python -m repro trace imb --check --runs 3   # replay-determinism check

Fault tolerance (see :mod:`repro.fault`)::

    python -m repro faults                       # HPL-under-faults campaign
    python -m repro faults --shrink --mtbf-x 2 1 # shrink-to-survivors sweep

Performance benchmarks (see :mod:`repro.perf`)::

    python -m repro bench                        # writes BENCH_*.json
    python -m repro bench engine --check         # perf-regression gate

Serving (see :mod:`repro.serve`)::

    python -m repro serve --port 7653            # campaign query server
    python -m repro loadtest --port 7653 --quick # open-loop load generator
    python -m repro jobs --port 7653 submit --campaign quick  # durable job
    python -m repro cluster-serve --backends 2 --port 7660    # sharded tier
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

ARTEFACTS = (
    "table1", "table2", "table3", "table4",
    "fig1", "fig2a", "fig2b", "fig3", "fig4", "fig5", "fig6", "fig7",
    "headline", "features", "stack", "energy", "green500", "compare",
)

#: Artefact name -> key in a campaign-results dict (``run_all`` shape).
_RESULT_KEYS = {
    "table1": "table1", "table2": "table2", "table4": "table4",
    "fig1": "figure1", "fig2a": "figure2a", "fig2b": "figure2b",
    "fig3": "figure3", "fig4": "figure4", "fig5": "figure5",
    "fig6": "figure6", "fig7": "figure7", "headline": "headline_hpl",
}

#: Campaign-results keys written as JSON files by ``repro all --json-dir``
#: (the byte-identity oracle against ``MobileSoCStudy.run_all``).
_JSON_ARTEFACTS = {
    "figure3": "figure3.json",
    "figure4": "figure4.json",
    "figure6": "figure6.json",
    "figure7": "figure7.json",
    "headline_hpl": "headline.json",
}

#: The seed of the study behind ``repro all``.  The key of the cached
#: campaign output needs it before ``repro.core.study`` is loaded.
CAMPAIGN_SEED = 0

#: Result-cache kind of ``repro all``'s whole output (see ``_all_cmd``).
CAMPAIGN_OUTPUT_KIND = "campaign_output"


def jobs_count(value: str) -> int:
    """Shared argparse type for every ``--jobs`` option (``repro all``,
    ``repro serve``, ``repro loadtest``): an integer worker count of at
    least 1.  One validator, one error message —
    pre-fix each subcommand rolled its own check (or forgot to)."""
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError("--jobs must be at least 1")
    return jobs


def _print_header(title: str) -> None:
    print(f"\n{title}")
    print("=" * len(title))


def run_artefact(name: str, study=None, results=None) -> None:
    """Render one artefact to stdout.

    ``results`` (a ``run_all``-shaped dict) supplies precomputed data —
    ``repro all`` renders from the campaign's merged results instead of
    recomputing them; artefacts without an entry fall back to the study
    methods.
    """
    from repro.analysis import (
        render_figure,
        render_table1,
        render_table2,
        render_table3,
        render_table4,
    )
    from repro.core.study import MobileSoCStudy

    study = study or MobileSoCStudy()

    def data(fallback):
        """Precomputed campaign data for this artefact, else compute."""
        key = _RESULT_KEYS.get(name)
        if results is not None and key is not None and key in results:
            return results[key]
        return fallback()

    if name == "table1":
        _print_header("Table 1: platforms under evaluation")
        print(render_table1())
    elif name == "table2":
        _print_header("Table 2: micro-kernel suite")
        print(render_table2())
    elif name == "table3":
        _print_header("Table 3: applications")
        print(render_table3())
    elif name == "table4":
        _print_header("Table 4: network bytes/FLOPS")
        print(render_table4())
    elif name == "fig1":
        _print_header("Figure 1: TOP500 share")
        print(render_figure("figure1", data(study.figure1)))
    elif name == "fig2a":
        _print_header("Figure 2a: vector vs commodity trends")
        print(render_figure("figure2a", data(study.figure2a)))
    elif name == "fig2b":
        _print_header("Figure 2b: server vs mobile trends")
        print(render_figure("figure2b", data(study.figure2b)))
    elif name == "fig3":
        _print_header("Figure 3: single-core sweep")
        print(render_figure("figure3", data(study.figure3)))
    elif name == "fig4":
        _print_header("Figure 4: multi-core sweep")
        print(render_figure("figure4", data(study.figure4)))
    elif name == "fig5":
        _print_header("Figure 5: STREAM bandwidth (GB/s)")
        for plat, d in data(study.figure5).items():
            print(
                f"  {plat:14s} single triad {d['single']['Triad']:6.2f}  "
                f"multi {d['multi']['Triad']:6.2f}  "
                f"eff {d['efficiency_vs_peak']:.0%}"
            )
    elif name == "fig6":
        _print_header("Figure 6: application scalability")
        print(render_figure("figure6", data(study.figure6)))
    elif name == "fig7":
        _print_header("Figure 7: interconnect")
        print(render_figure("figure7", data(study.figure7)))
    elif name == "headline":
        _print_header("Headline: HPL on 96 Tibidabo nodes")
        for k, v in data(study.headline_hpl).items():
            print(f"  {k}: {v:.2f}")
    elif name == "features":
        _print_header("Section 6.3: HPC-readiness matrix")
        from repro.arch.catalog import PLATFORMS
        from repro.arch.features import Feature, readiness_matrix
        from repro.arch.servers import SERVER_PLATFORMS
        from repro.core.results import render_table

        matrix = readiness_matrix(
            list(PLATFORMS.values()) + list(SERVER_PLATFORMS.values())
        )
        headers = ["Platform"] + [f.name for f in Feature]
        rows = [
            [plat] + ["yes" if row[f.value] else "-" for f in Feature]
            for plat, row in matrix.items()
        ]
        print(render_table(headers, rows))
    elif name == "stack":
        _print_header("Figure 8: software stack")
        from repro.stack import figure8_layout

        for layer, comps in figure8_layout().items():
            print(f"  {layer:22s}: {', '.join(comps)}")
    elif name == "energy":
        _print_header("Energy-to-solution vs a Nehalem cluster [13]")
        from repro.core.energy_study import pde_solver_campaign

        for app, r in pde_solver_campaign().items():
            print(
                f"  {app:10s} time {r.time_ratio:4.1f}x slower, "
                f"energy {r.energy_ratio:4.1f}x lower"
            )
    elif name == "green500":
        _print_header("Green500 positioning")
        from repro.core.green500 import megaproto_claim, tibidabo_positioning

        mp_rank, mp_holds = megaproto_claim()
        print(f"  MegaProto @100 MFLOPS/W, Nov 2007: rank ~{mp_rank:.0f} "
              f"(claim 45-70: {'holds' if mp_holds else 'FAILS'})")
        tb = tibidabo_positioning(study.headline_hpl()['mflops_per_watt'])
        print(f"  Tibidabo @{tb['mflops_per_watt']:.0f} MFLOPS/W, June 2013: "
              f"rank ~{tb['estimated_rank']:.0f}, "
              f"{tb['gap_to_best']:.0f}x under #1")
    elif name == "compare":
        _print_header("Paper vs measured (all encoded claims)")
        from repro.analysis import build_comparisons, comparisons_markdown

        print(comparisons_markdown(build_comparisons(study)))
    else:
        raise SystemExit(f"unknown artefact {name!r}")


def campaign_json_texts(results: dict) -> dict[str, str]:
    """File name -> text of the campaign's JSON oracle files (figures
    3/4/6/7 and the headline), byte-identical to the same dump of
    ``MobileSoCStudy.run_all``'s results."""
    return {
        fname: json.dumps(results[key], indent=2, sort_keys=True) + "\n"
        for key, fname in _JSON_ARTEFACTS.items()
    }


def _is_campaign_output(value) -> bool:
    """Whether a cached value has the shape ``_all_cmd`` stores."""
    return (
        isinstance(value, dict)
        and isinstance(value.get("text"), str)
        and isinstance(value.get("n_units"), int)
        and isinstance(value.get("json"), dict)
        and all(
            isinstance(value["json"].get(fname), str)
            for fname in _JSON_ARTEFACTS.values()
        )
    )


def _artefacts_cmd(args: argparse.Namespace) -> int:
    """Handler for the artefact subcommands (``repro table1 fig3 ...``)."""
    requested = [args.artefact] + list(args.more)
    names = (
        list(ARTEFACTS)
        if "all" in requested
        else list(dict.fromkeys(requested))
    )
    from repro.core.study import MobileSoCStudy

    study = MobileSoCStudy()
    for name in names:
        run_artefact(name, study)
    return 0


def _all_cmd(args: argparse.Namespace) -> int:
    """Handler for ``repro all``: the full campaign in this process,
    through the result cache when ``--cache-dir`` names one.

    With a cache, the run's whole output is one more content-addressed
    object: the text the artefacts render, the text of every
    ``--json-dir`` file and the unit count.  A run that finds it prints
    it and returns before anything loads the study, the runner or
    numpy.  Any other run computes the campaign (with unit-level cache
    hits) and stores the object once at the end.
    """
    t0 = time.perf_counter()
    cache = None
    if args.cache_dir is not None:
        from repro.parallel.cache import MISS, ResultCache, unit_key

        cache = ResultCache(args.cache_dir)
        key = unit_key(
            CAMPAIGN_OUTPUT_KIND, {"quick": args.quick}, CAMPAIGN_SEED
        )
        output = cache.get(key, valid=_is_campaign_output)
        if output is not MISS:
            _print_campaign(
                args, output, time.perf_counter() - t0, cache.stats
            )
            return 0

    from repro.core.study import MobileSoCStudy
    from repro.parallel.runner import run_campaign

    study = MobileSoCStudy(seed=CAMPAIGN_SEED)
    report = run_campaign(
        quick=args.quick, cache_dir=args.cache_dir, study=study
    )
    rendered = io.StringIO()
    with contextlib.redirect_stdout(rendered):
        for name in ARTEFACTS:
            run_artefact(name, study, report.results)
    output = {
        "text": rendered.getvalue(),
        "json": campaign_json_texts(report.results),
        "n_units": report.n_units,
    }
    stats = None
    if cache is not None:
        cache.put(key, output, kind=CAMPAIGN_OUTPUT_KIND)
        stats = cache.stats + report.cache_stats
    _print_campaign(args, output, report.wall_s, stats)
    return 0


def _print_campaign(
    args: argparse.Namespace, output: dict, wall_s: float, stats
) -> None:
    """Print a campaign output, write its ``--json-dir`` files, then
    report the unit count, the time and the cache gets (``stats``,
    ``None`` without a cache)."""
    sys.stdout.write(output["text"])
    if args.json_dir is not None:
        args.json_dir.mkdir(parents=True, exist_ok=True)
        for fname in _JSON_ARTEFACTS.values():
            path = args.json_dir / fname
            path.write_text(output["json"][fname])
            print(f"wrote {path}")
    print()
    print(
        f"campaign: {output['n_units']} work units in {wall_s:.2f} s"
        + (" [quick]" if args.quick else "")
    )
    if stats is not None:
        print(f"cache {args.cache_dir}: {stats.describe()}")


def _load_trace_main(argv: list[str]) -> int:
    from repro.obs.cli import trace_main

    return trace_main(argv)


def _load_faults_main(argv: list[str]) -> int:
    from repro.fault.cli import faults_main

    return faults_main(argv)


def _load_bench_main(argv: list[str]) -> int:
    from repro.perf.cli import bench_main

    return bench_main(argv)


def _load_serve_main(argv: list[str]) -> int:
    from repro.serve.cli import serve_main

    return serve_main(argv)


def _load_loadtest_main(argv: list[str]) -> int:
    from repro.serve.cli import loadtest_main

    return loadtest_main(argv)


def _load_jobs_main(argv: list[str]) -> int:
    from repro.serve.jobs_cli import jobs_main

    return jobs_main(argv)


def _load_cluster_serve_main(argv: list[str]) -> int:
    from repro.serve.cluster import cluster_serve_main

    return cluster_serve_main(argv)


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser: one subcommand per artefact plus the
    ``all`` campaign and the trace/faults/bench tool CLIs."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artefacts of the SC'13 mobile-SoC study.",
        epilog="Each tool subcommand has its own options: "
        "'repro trace --help', 'repro faults --help', 'repro bench --help', "
        "'repro serve --help', 'repro loadtest --help'.",
    )
    sub = parser.add_subparsers(
        dest="command", metavar="command", required=True
    )

    all_p = sub.add_parser(
        "all",
        help="regenerate every artefact (the full campaign)",
        description="Run the whole campaign in one process; with "
        "--cache-dir, unit results are read from and written to the "
        "persistent result cache.  Output is byte-identical either way.",
    )
    all_p.add_argument(
        "--jobs", type=jobs_count, default=1, metavar="N",
        help="accepted for compatibility and ignored: the campaign "
        "always runs in one process (must still be at least 1)",
    )
    all_p.add_argument(
        "--quick", action="store_true",
        help="trim Figure 6 to the smoke-campaign node counts",
    )
    all_p.add_argument(
        "--json-dir", type=Path, default=None, metavar="DIR",
        help="write figure3/4/6/7 and headline JSON files here",
    )
    all_p.add_argument(
        "--cache-dir", type=Path, default=None, metavar="DIR",
        help="result-cache location (default: no cache)",
    )
    all_p.set_defaults(handler=_all_cmd)

    for name, summary, tool_main in (
        ("trace", "structured tracing / replay checks (repro.obs)",
         _load_trace_main),
        ("faults", "fault-injection campaigns (repro.fault)",
         _load_faults_main),
        ("bench", "performance suites writing BENCH_*.json (repro.perf)",
         _load_bench_main),
        ("serve", "batched campaign-serving front end (repro.serve)",
         _load_serve_main),
        ("loadtest", "open-loop load generator for serve (repro.serve)",
         _load_loadtest_main),
        ("jobs", "durable campaign job tier client for serve (repro.serve)",
         _load_jobs_main),
        ("cluster-serve",
         "sharded serve cluster: router + N backends (repro.serve)",
         _load_cluster_serve_main),
    ):
        tool_p = sub.add_parser(
            name,
            help=summary,
            add_help=False,
            description=f"Delegates to the '{name}' tool's own parser; "
            f"run 'repro {name} --help' for its options.",
        )
        tool_p.add_argument("args", nargs="*")
        tool_p.set_defaults(handler=None, tool_main=tool_main)

    for name in ARTEFACTS:
        art_p = sub.add_parser(name, help=f"regenerate the {name} artefact")
        art_p.add_argument(
            "more",
            nargs="*",
            choices=ARTEFACTS + ("all", []),
            metavar="artefact",
            help="further artefacts to regenerate in the same run",
        )
        art_p.set_defaults(handler=_artefacts_cmd, artefact=name)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    # Tool subcommands own their whole tail (including flags the top
    # parser has never heard of), so parse leniently first and hand the
    # tail over verbatim — the top-level grammar owns only argv[0].
    args, extra = parser.parse_known_args(argv)
    if getattr(args, "tool_main", None) is not None:
        return args.tool_main(argv[1:])
    if extra:
        parser.error("unrecognized arguments: " + " ".join(extra))
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
