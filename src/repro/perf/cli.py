"""``python -m repro bench`` — run the perf suites, write BENCH_*.json.

Usage::

    python -m repro bench                      # all suites -> ./BENCH_*.json
    python -m repro bench engine mpi           # a subset
    python -m repro bench --quick              # CI smoke sizes
    python -m repro bench --check              # fail on >tolerance regression
    python -m repro bench --update-baseline    # re-record the committed baseline
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.perf.bench import suite_doc, validate_bench_doc
from repro.perf.compare import (
    BASELINE_PATH,
    check_against_baseline,
    load_baseline,
    results_by_name,
)
from repro.perf.suites import SUITES


def bench_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run the simulator performance suites.",
    )
    parser.add_argument(
        "suites",
        nargs="*",
        choices=[[], *SUITES],  # empty selection = all
        default=[],
        help="suites to run (default: all of %s)" % ", ".join(SUITES),
    )
    parser.add_argument(
        "--out-dir", type=Path, default=Path("."),
        help="directory for BENCH_<suite>.json files (default: cwd)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timing repeats per benchmark, best kept (default: 5)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sizes/repeats for CI smoke runs",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed baseline; exit 1 on regression",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help=f"baseline file for --check/--update-baseline (default: {BASELINE_PATH})",
    )
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help="allowed fractional slowdown before --check fails "
        "(default: the baseline's own default_tolerance, else 0.20)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline's ops/s entries from this run",
    )
    args = parser.parse_args(argv)
    selected = list(dict.fromkeys(args.suites)) or list(SUITES)
    repeats = 1 if args.quick else args.repeats

    args.out_dir.mkdir(parents=True, exist_ok=True)
    docs = []
    for name in selected:
        results, seed_ref = SUITES[name](repeats, args.quick)
        doc = suite_doc(name, results, seed_ref)
        validate_bench_doc(doc)
        out = args.out_dir / f"BENCH_{name}.json"
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        docs.append(doc)
        print(f"{out}:")
        for rec in doc["benchmarks"]:
            line = (
                f"  {rec['name']:28s} {rec['ops_per_s']:14,.1f} ops/s  "
                f"wall {rec['wall_s']:.4f} s"
            )
            if "speedup_vs_seed" in rec:
                line += f"  {rec['speedup_vs_seed']:.2f}x vs seed"
            print(line)
        if "geomean_speedup_vs_seed" in doc:
            print(
                f"  geomean speedup vs seed: "
                f"{doc['geomean_speedup_vs_seed']:.2f}x"
            )

    current = results_by_name(docs)
    baseline_path = args.baseline if args.baseline is not None else BASELINE_PATH

    if args.update_baseline:
        try:
            base = load_baseline(baseline_path)
        except FileNotFoundError:
            base = {"schema_version": 1, "default_tolerance": 0.20, "benchmarks": {}}
        base["benchmarks"].update(current)
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(
            json.dumps(base, indent=2, sort_keys=True) + "\n"
        )
        print(f"baseline updated: {baseline_path}")

    if args.check:
        baseline = dict(load_baseline(baseline_path))
        # Gate only the suites that ran: a benchmark absent because its
        # suite was not selected is not a regression (one missing from
        # a suite that DID run still fails).
        baseline["benchmarks"] = {
            k: v
            for k, v in baseline["benchmarks"].items()
            if k.split(".", 1)[0] in selected
        }
        ok, lines = check_against_baseline(
            current, baseline, tolerance=args.tolerance
        )
        print("\n".join(lines))
        return 0 if ok else 1
    return 0
