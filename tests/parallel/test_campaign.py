"""The campaign runner: plan, equivalence, byte-identity.

The oracle throughout: the runner, with or without the result cache,
must produce output *byte-identical* (through ``json.dumps``) to the
serial ``run_all``.  The serial campaign and one cold cached campaign
are module-scoped fixtures — every test after them rides the warm
cache.
"""

import contextlib
import io
import json
import multiprocessing.pool

import pytest

from repro.core.study import MobileSoCStudy
from repro.parallel.cache import ResultCache, unit_key
from repro.parallel.runner import run_campaign, run_units
from repro.parallel.units import (
    SWEEP_MODES,
    WorkUnit,
    campaign_units,
    execute_unit,
)

ORACLE_KEYS = ("figure3", "figure4", "figure6", "headline_hpl")


def canon(data) -> str:
    return json.dumps(data, sort_keys=True)


def assert_oracle_json(json_dir, serial_results) -> None:
    """The ``--json-dir`` files equal the serial oracle's, byte for byte."""
    from repro.cli import _JSON_ARTEFACTS

    for key, fname in _JSON_ARTEFACTS.items():
        expected = (
            json.dumps(serial_results[key], indent=2, sort_keys=True) + "\n"
        )
        assert (json_dir / fname).read_text() == expected, fname


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("repro-cache")


@pytest.fixture(scope="module")
def serial_results():
    return MobileSoCStudy().run_all(quick=True)


@pytest.fixture(scope="module")
def cold_report(cache_dir):
    return run_campaign(quick=True, cache_dir=cache_dir)


class TestPlan:
    def test_campaign_units_shape(self, cluster96):
        units = campaign_units(True, cluster96)
        kinds = [u.kind for u in units]
        assert kinds[0] == "headline"  # heaviest first, for pool packing
        assert kinds.count("sweep_base") == 1
        labels = [u.label() for u in units]
        assert len(set(labels)) == len(labels)  # no unit appears twice
        modes = {u.params["mode"] for u in units if u.kind == "sweep_point"}
        assert modes == set(SWEEP_MODES)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="work-unit kind"):
            execute_unit("nonsense", {})


class TestUnitEquivalence:
    def test_sweep_point_matches_study_method(self):
        study = MobileSoCStudy()
        via_unit = execute_unit(
            "sweep_point", {"mode": "single", "platform": "Tegra2", "freq": 1.0}
        )
        direct = study.sweep_point("single", "Tegra2", 1.0)
        assert canon(via_unit) == canon(direct)

    def test_sweep_base_matches_study_method(self):
        assert execute_unit("sweep_base", {}) == (
            MobileSoCStudy().sweep_base_energy()
        )


class TestRunUnits:
    UNITS = [
        WorkUnit("sweep_point", {"mode": "single", "platform": "Tegra2", "freq": 1.0}),
        WorkUnit("sweep_base", {}),
    ]

    def test_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_units(self.UNITS, cache=cache)
        assert (cache.stats.hits, cache.stats.misses) == (0, 2)
        again = run_units(self.UNITS, cache=cache)
        assert (cache.stats.hits, cache.stats.misses) == (2, 2)
        assert canon(first) == canon(again)


class TestCampaignByteIdentity:
    def test_sharded_matches_serial(self, serial_results, cold_report):
        for key in ORACLE_KEYS:
            assert canon(cold_report.results[key]) == canon(
                serial_results[key]
            ), key

    def test_cold_run_was_all_misses(self, cold_report):
        assert cold_report.cache_stats.hits == 0
        assert cold_report.cache_stats.misses == cold_report.n_units

    def test_warm_rerun_hits_everything(
        self, serial_results, cold_report, cache_dir
    ):
        warm = run_campaign(quick=True, cache_dir=cache_dir)
        assert warm.cache_stats.misses == 0
        assert warm.cache_stats.hit_rate > 0.9  # the acceptance bar
        for key in ORACLE_KEYS:
            assert canon(warm.results[key]) == canon(serial_results[key]), key

    def test_warm_artefact_text_matches_uncached(self, cold_report, cache_dir):
        """Artefacts rendered from unit-level cache hits print exactly
        what the uncached run prints.  The cache stores values
        key-sorted, so this pins the headline's key order too."""
        from repro.cli import ARTEFACTS, run_artefact

        def rendered(**kwargs) -> str:
            study = MobileSoCStudy()
            report = run_campaign(quick=True, study=study, **kwargs)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                for name in ARTEFACTS:
                    run_artefact(name, study, report.results)
            return out.getvalue()

        assert rendered(cache_dir=cache_dir) == rendered()

    def test_report_describe_mentions_cache(self, cold_report):
        text = cold_report.describe()
        assert "work units" in text and "hit rate" in text

    def test_code_change_invalidates_cache(self, cold_report, cache_dir):
        """A different fingerprint must never alias an existing entry."""
        unit = WorkUnit("sweep_base", {})
        cache = ResultCache(cache_dir)
        assert cache.get(unit_key(unit.kind, unit.params)) is not None
        stale = unit_key(unit.kind, unit.params, fingerprint="other-code")
        from repro.parallel.cache import MISS

        assert cache.get(stale) is MISS


class TestCliCampaign:
    def test_all_jobs_writes_identical_json(
        self, serial_results, cold_report, cache_dir, tmp_path, capsys
    ):
        """``repro all --cache-dir`` (warm cache) must write the same
        JSON oracle files as the serial results, byte for byte."""
        from repro.cli import main

        json_dir = tmp_path / "json"
        assert main(
            [
                "all", "--quick", "--jobs", "2",
                "--cache-dir", str(cache_dir),
                "--json-dir", str(json_dir),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "hit rate" in out  # the campaign report is printed
        assert_oracle_json(json_dir, serial_results)

    def test_all_runs_in_process_without_a_cache(
        self, serial_results, tmp_path, monkeypatch, capsys
    ):
        """``repro all --jobs 2`` forks no worker and, without
        ``--cache-dir``, writes no result cache; its JSON still equals
        the serial oracle's byte for byte."""
        from repro.cli import main

        def no_pool(self, *args, **kwargs):
            raise AssertionError("repro all created a worker pool")

        monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", no_pool)
        monkeypatch.chdir(tmp_path)
        assert main(
            ["all", "--quick", "--jobs", "2", "--json-dir", "json"]
        ) == 0
        assert not (tmp_path / ".repro-cache").exists()
        assert "cache" not in capsys.readouterr().out.splitlines()[-1]
        assert_oracle_json(tmp_path / "json", serial_results)

    def test_all_rejects_bad_jobs(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as e:
            main(["all", "--jobs", "0"])
        assert e.value.code == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
