"""Regression tests for the perf-harness latent bugs."""

import json

import pytest

from repro.perf.bench import BenchResult, suite_doc, validate_bench_doc
from repro.perf.compare import load_baseline, results_by_name


def _doc(suite, *names):
    return suite_doc(
        suite, [BenchResult(n, 1, 1.0, 1.0, 1, 1024) for n in names]
    )


class TestResultsByNameCollision:
    def test_duplicate_across_docs_raises(self):
        """Pre-fix a duplicate name silently shadowed the earlier
        measurement, so the regression gate checked the wrong number."""
        with pytest.raises(ValueError, match="duplicate benchmark"):
            results_by_name([_doc("s1", "shared.x"), _doc("s2", "shared.x")])

    def test_error_names_both_suites(self):
        with pytest.raises(ValueError, match="'s1'.*'s2'"):
            results_by_name([_doc("s1", "shared.x"), _doc("s2", "shared.x")])

    def test_distinct_names_still_flatten(self):
        flat = results_by_name([_doc("s1", "s1.a"), _doc("s2", "s2.b")])
        assert set(flat) == {"s1.a", "s2.b"}


class TestCorruptBaseline:
    def test_truncated_json_gets_actionable_error(self, tmp_path):
        """Pre-fix a corrupt baseline surfaced as a raw JSONDecodeError
        with no hint of which file or how to recover."""
        path = tmp_path / "baseline.json"
        path.write_text('{"schema_version": 1, "benchmarks": {"a"')
        with pytest.raises(ValueError, match="update-baseline") as e:
            load_baseline(path)
        assert str(path) in str(e.value)
        assert isinstance(e.value.__cause__, json.JSONDecodeError)

    def test_missing_file_error_unchanged(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="update-baseline"):
            load_baseline(tmp_path / "nope.json")
