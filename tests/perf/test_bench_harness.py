"""The perf-regression harness itself: result records, the
``BENCH_*.json`` schema, the tolerance gate, and the CLI.

These tests never assert absolute performance (CI machines vary); they
assert the *machinery* — documents validate, the gate trips exactly
when it should, and running benchmarks perturbs nothing (tracing stays
off, golden traces stay byte-identical).
"""

import json

import pytest

from repro.perf.bench import (
    BenchResult,
    peak_rss_bytes,
    run_bench,
    suite_doc,
    validate_bench_doc,
)
from repro.perf.compare import (
    Comparison,
    check_against_baseline,
    compare_to_baseline,
    results_by_name,
)


def _counting_fn(ops=100):
    def fn():
        total = 0
        for i in range(1000):
            total += i
        return ops

    return fn


class TestRunBench:
    def test_result_fields(self):
        r = run_bench("t.bench", _counting_fn(250), repeats=2)
        assert r.name == "t.bench"
        assert r.ops == 250
        assert r.wall_s > 0
        assert r.ops_per_s == pytest.approx(250 / r.wall_s)
        assert r.repeats == 2
        assert r.peak_rss_bytes > 0

    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            run_bench("t", _counting_fn(), repeats=0)

    def test_rejects_zero_ops(self):
        with pytest.raises(ValueError, match="no operations"):
            run_bench("t", lambda: 0)

    def test_warmup_runs_fn_once_more(self):
        calls = []

        def fn():
            calls.append(1)
            return 1

        run_bench("t", fn, repeats=2, warmup=True)
        assert len(calls) == 3
        calls.clear()
        run_bench("t", fn, repeats=2, warmup=False)
        assert len(calls) == 2

    def test_peak_rss_positive(self):
        assert peak_rss_bytes() > 1024 * 1024  # a Python process is >1 MiB


class TestSuiteDoc:
    def _results(self):
        return [
            BenchResult("s.a", 100, 0.5, 200.0, 3, 10_000_000),
            BenchResult("s.b", 100, 0.25, 400.0, 3, 10_000_000),
        ]

    def test_doc_validates(self):
        doc = suite_doc("s", self._results())
        validate_bench_doc(doc)  # does not raise
        assert doc["suite"] == "s"
        assert len(doc["benchmarks"]) == 2
        assert "geomean_speedup_vs_seed" not in doc

    def test_seed_refs_add_speedups(self):
        doc = suite_doc("s", self._results(), {"s.a": 100.0, "s.b": 100.0})
        recs = {r["name"]: r for r in doc["benchmarks"]}
        assert recs["s.a"]["speedup_vs_seed"] == pytest.approx(2.0)
        assert recs["s.b"]["speedup_vs_seed"] == pytest.approx(4.0)
        # geomean of 2x and 4x
        assert doc["geomean_speedup_vs_seed"] == pytest.approx(8.0 ** 0.5)
        validate_bench_doc(doc)

    def test_partial_seed_refs(self):
        doc = suite_doc("s", self._results(), {"s.a": 100.0})
        recs = {r["name"]: r for r in doc["benchmarks"]}
        assert "speedup_vs_seed" in recs["s.a"]
        assert "speedup_vs_seed" not in recs["s.b"]

    def test_extras_flow_into_record_and_validate(self):
        # The serve suite attaches hit_ratio and tail latencies this way.
        res = BenchResult(
            "s.a", 100, 0.5, 200.0, 1, 10_000_000,
            extras={"hit_ratio": 0.97, "p99_latency_s": 0.041},
        )
        rec = res.as_record(seed_ops_per_s=100.0)
        assert rec["hit_ratio"] == pytest.approx(0.97)
        assert rec["p99_latency_s"] == pytest.approx(0.041)
        # Extras never clobber the core fields or the seed comparison.
        assert rec["ops_per_s"] == pytest.approx(200.0)
        assert rec["speedup_vs_seed"] == pytest.approx(2.0)
        validate_bench_doc(suite_doc("s", [res]))

    def test_extras_cannot_shadow_core_fields(self):
        res = BenchResult(
            "s.a", 100, 0.5, 200.0, 1, 10_000_000,
            extras={"ops_per_s": 1.0},
        )
        assert res.as_record()["ops_per_s"] == pytest.approx(200.0)


class TestValidateBenchDoc:
    def _good(self):
        return suite_doc("s", [BenchResult("s.a", 1, 0.1, 10.0, 1, 1024)])

    def test_wrong_schema_version(self):
        doc = self._good()
        doc["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            validate_bench_doc(doc)

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_bench_doc([1, 2])

    def test_empty_benchmarks(self):
        doc = self._good()
        doc["benchmarks"] = []
        with pytest.raises(ValueError, match="non-empty list"):
            validate_bench_doc(doc)

    def test_duplicate_names(self):
        doc = self._good()
        doc["benchmarks"].append(dict(doc["benchmarks"][0]))
        with pytest.raises(ValueError, match="duplicated"):
            validate_bench_doc(doc)

    def test_nonpositive_rate(self):
        doc = self._good()
        doc["benchmarks"][0]["ops_per_s"] = 0.0
        with pytest.raises(ValueError, match="ops_per_s"):
            validate_bench_doc(doc)

    def test_missing_field(self):
        doc = self._good()
        del doc["benchmarks"][0]["wall_s"]
        with pytest.raises(ValueError, match="wall_s"):
            validate_bench_doc(doc)

    def test_reports_every_problem(self):
        doc = self._good()
        doc["suite"] = ""
        doc["benchmarks"][0]["ops"] = -3
        with pytest.raises(ValueError) as e:
            validate_bench_doc(doc)
        msg = str(e.value)
        assert "suite" in msg and "ops" in msg


class TestToleranceGate:
    BASE = {
        "schema_version": 1,
        "default_tolerance": 0.2,
        "benchmarks": {"a": 1000.0, "b": 500.0},
    }

    def test_exactly_at_tolerance_passes(self):
        # 20% drop is the boundary: ratio 0.80 is NOT < 0.80.
        ok, _ = check_against_baseline(
            {"a": 800.0, "b": 500.0}, dict(self.BASE)
        )
        assert ok

    def test_just_past_tolerance_fails(self):
        ok, lines = check_against_baseline(
            {"a": 799.0, "b": 500.0}, dict(self.BASE)
        )
        assert not ok
        assert any("REGRESSED" in ln and ln.startswith("a") for ln in lines)

    def test_improvement_passes(self):
        ok, _ = check_against_baseline(
            {"a": 5000.0, "b": 5000.0}, dict(self.BASE)
        )
        assert ok

    def test_missing_benchmark_fails(self):
        ok, lines = check_against_baseline({"a": 1000.0}, dict(self.BASE))
        assert not ok
        assert any("MISSING" in ln for ln in lines)

    def test_new_benchmark_ignored(self):
        ok, _ = check_against_baseline(
            {"a": 1000.0, "b": 500.0, "brand_new": 1.0}, dict(self.BASE)
        )
        assert ok

    def test_explicit_tolerance_overrides_doc(self):
        current = {"a": 700.0, "b": 500.0}  # 30% drop on a
        assert not check_against_baseline(current, dict(self.BASE))[0]
        assert check_against_baseline(
            current, dict(self.BASE), tolerance=0.4
        )[0]

    def test_per_benchmark_tolerance_override(self):
        base = dict(self.BASE)
        base["tolerances"] = {"a": 0.5}
        ok, _ = check_against_baseline({"a": 600.0, "b": 500.0}, base)
        assert ok  # 40% drop on a allowed by its 50% override
        ok, _ = check_against_baseline({"a": 600.0, "b": 350.0}, base)
        assert not ok  # b still gated at the 20% default

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            check_against_baseline({}, dict(self.BASE), tolerance=1.5)

    def test_bad_baseline_entry_rejected(self):
        base = dict(self.BASE)
        base["benchmarks"] = {"a": -5.0}
        with pytest.raises(ValueError, match="positive"):
            compare_to_baseline({}, base)

    def test_comparison_ratio(self):
        c = Comparison("x", 100.0, 50.0)
        assert c.ratio == pytest.approx(0.5)
        assert c.regressed(0.2) and not c.regressed(0.6)
        missing = Comparison("x", 100.0, None)
        assert missing.ratio == 0.0 and missing.regressed(0.2)

    def test_results_by_name_flattens(self):
        docs = [
            suite_doc("s1", [BenchResult("s1.a", 1, 1.0, 1.0, 1, 1)]),
            suite_doc("s2", [BenchResult("s2.b", 2, 1.0, 2.0, 1, 1)]),
        ]
        assert results_by_name(docs) == {"s1.a": 1.0, "s2.b": 2.0}


class TestCommittedBaseline:
    def test_committed_baseline_loads_and_is_sane(self):
        from repro.perf.compare import BASELINE_PATH, load_baseline

        doc = load_baseline(BASELINE_PATH)
        assert doc["schema_version"] == 1
        assert doc["benchmarks"]
        for name, ops in doc["benchmarks"].items():
            assert ops > 0, name
        for name, tol in doc.get("tolerances", {}).items():
            assert 0.0 <= tol < 1.0, name
            assert name in doc["benchmarks"], f"tolerance for unknown {name}"


class TestSuitesAndCli:
    def test_engine_suite_quick_produces_valid_doc(self):
        from repro.perf.suites import engine_suite

        results = engine_suite(repeats=1, quick=True)
        doc = suite_doc("engine", results)
        validate_bench_doc(doc)
        names = [r.name for r in results]
        assert names == [
            "engine.timer_cascade", "engine.event_chain", "engine.timeouts",
        ]

    def test_engine_suite_with_seed_measures_live(self):
        from repro.perf.suites import engine_suite_with_seed, load_seed_engine_cls

        assert load_seed_engine_cls() is not None  # reference copy committed
        results, seed_ref = engine_suite_with_seed(repeats=1, quick=True)
        assert set(seed_ref) == {r.name for r in results}
        assert all(v > 0 for v in seed_ref.values())

    def test_fig6_grid_times_the_oracle_in_the_same_run(self, monkeypatch):
        """``apps.fig6_grid`` times the default path, then the DES oracle
        once under ``REPRO_SCALAR_SWEEP=1``, restores the environment,
        and records the same-run ratio and the host's core count."""
        import os

        from repro.perf import suites

        seen = []

        def grid():
            seen.append(os.environ.get("REPRO_SCALAR_SWEEP"))
            return 44

        monkeypatch.setattr(suites, "_fig6_grid", grid)
        monkeypatch.delenv("REPRO_SCALAR_SWEEP", raising=False)
        result = dict(suites._apps_bodies(2, True))["apps.fig6_grid"]()
        assert result.ops == 44
        assert seen == [None, None, None, "1"]  # warm-up, 2 timed, oracle
        assert "REPRO_SCALAR_SWEEP" not in os.environ
        assert result.extras["host_cpus"] == float(os.cpu_count() or 1)
        assert result.extras["speedup_vs_des"] == pytest.approx(
            result.extras["des_wall_s"] / result.wall_s
        )
        validate_bench_doc(suite_doc("apps", [result]))

    def test_figure7_times_the_oracle_in_the_same_run(self, monkeypatch):
        """``apps.figure7`` runs every Figure 7 ping-pong event-free,
        then once on the engine under ``REPRO_SCALAR_SWEEP=1``, in the
        same process, and records the same-run ratio."""
        import os

        from repro.core.study import FIG7_CONFIGS
        from repro.mpi.benchmarks import BANDWIDTH_SIZES, LATENCY_SIZES
        from repro.perf import suites

        monkeypatch.delenv("REPRO_SCALAR_SWEEP", raising=False)
        result = dict(suites._apps_bodies(1, True))["apps.figure7"]()
        per_stack = len(LATENCY_SIZES) + len(BANDWIDTH_SIZES)
        assert result.ops == len(FIG7_CONFIGS) * per_stack
        assert "REPRO_SCALAR_SWEEP" not in os.environ
        assert result.extras["host_cpus"] == float(os.cpu_count() or 1)
        assert result.extras["speedup_vs_des"] == pytest.approx(
            result.extras["des_wall_s"] / result.wall_s
        )
        validate_bench_doc(suite_doc("apps", [result]))

    def test_campaign_suite_runs_serial_cold_and_warm(self):
        from repro.perf.suites import campaign_suite_with_ref

        results, ref = campaign_suite_with_ref(quick=True)
        names = [r.name for r in results]
        assert names == [
            "campaign.quick_serial", "campaign.quick_cold_cache",
            "campaign.quick_warm_cache", "campaign.warm_cpu_ms",
        ]
        # The start-up floor makes no speedup claim.
        assert set(ref) == set(names) - {"campaign.warm_cpu_ms"}
        validate_bench_doc(suite_doc("campaign", results, ref))

    def test_warm_cpu_ms_times_one_all_hit_process(self, tmp_path):
        """``campaign.warm_cpu_ms`` is the CPU of a ``repro all --quick``
        process whose every unit hits the cache, with a unit and a
        direction per extra; a cache that misses is refused."""
        from repro.parallel.runner import run_campaign
        from repro.perf.suites import _warm_cpu_result

        with pytest.raises(RuntimeError, match="missed the cache"):
            _warm_cpu_result(str(tmp_path / "empty"), runs=1)
        run_campaign(quick=True, cache_dir=tmp_path / "cache")
        result = _warm_cpu_result(str(tmp_path / "cache"), runs=2)
        assert result.name == "campaign.warm_cpu_ms" and result.repeats == 2
        extras = result.extras
        assert extras["cpu_ms"] > 0 and extras["host_cpus"] >= 1
        assert set(extras["units"]) == set(extras["better"]) == {
            "cpu_ms", "host_cpus",
        }
        assert extras["better"]["cpu_ms"] == "lower"
        validate_bench_doc(suite_doc("campaign", [result]))

    def test_hot_during_sims_records_the_hot_tail(self):
        """One ``repro serve`` boot, no pool: the hot-hit tail during
        the burst, and every extra carries its unit."""
        from repro.perf.bench import peak_rss_bytes
        from repro.perf.suites import _hot_during_sims_result

        result = _hot_during_sims_result(peak_rss_bytes)
        assert result.name == "serve.hot_during_sims" and result.ops == 17
        extras = result.extras
        assert extras["probes"] >= 1
        assert 0 < extras["hot_p50_ms"] <= extras["hot_p99_ms"]
        assert extras["burst_wall_s"] == result.wall_s > 0
        assert extras["host_cpus"] >= 1
        assert set(extras["units"]) == set(extras) - {"units"} == {
            "hot_p50_ms", "hot_p99_ms", "burst_wall_s", "probes",
            "host_cpus",
        }
        validate_bench_doc(suite_doc("serve", [result]))

    def test_bench_has_no_jobs_flag(self, capsys):
        from repro.perf.cli import bench_main

        with pytest.raises(SystemExit) as e:
            bench_main(["engine", "--jobs", "2"])
        assert e.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_bench_cli_writes_valid_json(self, tmp_path, capsys):
        from repro.perf.cli import bench_main

        assert bench_main(
            ["engine", "--quick", "--out-dir", str(tmp_path), "--repeats", "1"]
        ) == 0
        doc = json.loads((tmp_path / "BENCH_engine.json").read_text())
        validate_bench_doc(doc)
        assert doc["suite"] == "engine"
        assert "speedup_vs_seed" in doc["benchmarks"][0]
        assert "BENCH_engine.json" in capsys.readouterr().out

    def test_bench_cli_check_fails_on_regression(self, tmp_path):
        from repro.perf.cli import bench_main

        impossible = {
            "schema_version": 1,
            "default_tolerance": 0.2,
            "benchmarks": {"engine.timer_cascade": 1e15},
        }
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps(impossible))
        rc = bench_main(
            [
                "engine", "--quick", "--repeats", "1",
                "--out-dir", str(tmp_path), "--check", "--baseline", str(bad),
            ]
        )
        assert rc == 1

    def test_bench_cli_subset_check_ignores_other_suites(self, tmp_path):
        # A baseline covering all suites must not fail an engine-only
        # run over the un-run mpi/apps entries.
        from repro.perf.cli import bench_main

        base = {
            "schema_version": 1,
            "default_tolerance": 0.99,
            "benchmarks": {
                "engine.timer_cascade": 1.0,
                "engine.event_chain": 1.0,
                "engine.timeouts": 1.0,
                "mpi.pingpong_small": 1e15,
                "apps.hpl96_headline": 1e15,
            },
        }
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(base))
        rc = bench_main(
            ["engine", "--quick", "--repeats", "1",
             "--out-dir", str(tmp_path), "--check", "--baseline", str(path)]
        )
        assert rc == 0

    def test_bench_cli_dispatch_through_main(self, tmp_path):
        from repro.cli import main

        assert main(
            ["bench", "engine", "--quick", "--out-dir", str(tmp_path),
             "--repeats", "1"]
        ) == 0
        assert (tmp_path / "BENCH_engine.json").exists()

    def test_update_baseline_roundtrip(self, tmp_path):
        from repro.perf.cli import bench_main

        path = tmp_path / "baseline.json"
        assert bench_main(
            ["engine", "--quick", "--repeats", "1",
             "--out-dir", str(tmp_path),
             "--update-baseline", "--baseline", str(path)]
        ) == 0
        doc = json.loads(path.read_text())
        assert "engine.timer_cascade" in doc["benchmarks"]
        # A self-recorded baseline must pass its own gate immediately.
        rc = bench_main(
            ["engine", "--quick", "--repeats", "2",
             "--out-dir", str(tmp_path),
             "--check", "--baseline", str(path), "--tolerance", "0.9"]
        )
        assert rc == 0


class TestBenchesAreInert:
    """Running benchmarks must not flip any global switch or perturb
    the deterministic scenarios the golden traces certify."""

    def test_tracing_stays_off(self):
        from repro.obs import recorder
        from repro.perf.suites import engine_suite

        assert recorder.current() is None
        engine_suite(repeats=1, quick=True)
        assert recorder.current() is None

    def test_golden_trace_identical_after_benchmarks(self):
        import pathlib

        from repro.obs.replay import scenario_canonical_text
        from repro.perf.suites import engine_suite, mpi_suite

        engine_suite(repeats=1, quick=True)
        mpi_suite(repeats=1, quick=True)
        golden = (
            pathlib.Path(__file__).resolve().parent.parent
            / "data" / "pingpong4.trace"
        ).read_text()
        assert scenario_canonical_text("pingpong", seed=0) == golden
