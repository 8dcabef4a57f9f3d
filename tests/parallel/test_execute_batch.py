"""In-process batch execution: sweep points grouped into one vectorized
``sweep_points`` call per mode, bit-identical to running each unit
alone, the scalar oracle under ``REPRO_SCALAR_SWEEP=1``, per-unit
failure isolation for ``run_units(safe=True)``, and every value cached
the moment it is computed."""

import json

import pytest

from repro.core.study import MobileSoCStudy
from repro.parallel import units as units_mod
from repro.parallel.cache import ResultCache
from repro.parallel.runner import UnitFailure, run_units
from repro.parallel.units import WorkUnit, execute_batch, execute_unit


def canon(data) -> str:
    return json.dumps(data, sort_keys=True)


def batch_values(batch, **kwargs):
    """``execute_batch``'s yields, placed back in batch order."""
    out = [None] * len(batch)
    for i, value in execute_batch(batch, **kwargs):
        out[i] = value
    return out


def sweep(mode, platform, freq):
    return WorkUnit(
        "sweep_point", {"mode": mode, "platform": platform, "freq": freq}
    )


MIXED = [
    sweep("single", "Tegra2", 0.777),
    sweep("multi", "Exynos5250", 1.234),
    WorkUnit("sweep_base", {}),
    sweep("single", "Corei7-2760QM", 2.0001),
    sweep("multi", "Tegra3", 0.51),
    sweep("single", "Tegra3", 1.3),
]


@pytest.fixture
def sweep_calls(monkeypatch):
    """Record the point count of every ``sweep_points`` call."""
    calls = []
    original = MobileSoCStudy.sweep_points

    def counting(self, mode, points=None):
        calls.append((mode, len(points)))
        return original(self, mode, points)

    monkeypatch.setattr(MobileSoCStudy, "sweep_points", counting)
    return calls


class TestGrouping:
    def test_one_sweep_points_call_per_mode(self, sweep_calls):
        batch_values(MIXED)
        assert sorted(sweep_calls) == [("multi", 2), ("single", 3)]

    def test_bit_identical_to_one_unit_at_a_time(self):
        alone = [execute_unit(u.kind, u.params) for u in MIXED]
        assert canon(batch_values(MIXED)) == canon(alone)
        assert canon(run_units(MIXED)) == canon(alone)

    def test_scalar_oracle_under_env_flag(self, monkeypatch, sweep_calls):
        vectorized = batch_values(MIXED)
        sweep_calls.clear()
        monkeypatch.setenv("REPRO_SCALAR_SWEEP", "1")
        scalar = run_units(MIXED)
        assert sweep_calls == []  # the oracle path never batches
        assert canon(scalar) == canon(vectorized)
        study = MobileSoCStudy()
        assert scalar[0] == study._sweep_point_scalar("single", "Tegra2", 0.777)


class TestFailureIsolation:
    BATCH = [
        sweep("single", "Tegra2", 0.777),
        sweep("single", "Tegra2", -1.0),
        sweep("single", "NoSuch", 1.0),
        WorkUnit("sweep_point", {"platform": "Tegra2", "freq": 1.0}),
    ]

    def test_safe_run_fails_only_the_bad_units(self):
        values = run_units(self.BATCH, safe=True)
        assert values[0] == execute_unit(
            "sweep_point", self.BATCH[0].params
        )
        for value, exc_type in zip(values[1:], (ValueError, KeyError, KeyError)):
            assert isinstance(value, UnitFailure)
            assert isinstance(value.exc, exc_type)
        assert values[1].error == "ValueError: frequency must be positive"

    def test_unsafe_run_raises_the_first_bad_units_own_error(self):
        with pytest.raises(ValueError, match="frequency must be positive"):
            run_units(self.BATCH)

    def test_failures_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_units(self.BATCH, cache=cache, safe=True)
        assert len(cache._object_files()) == 1


class TestCheckpointing:
    SIMS = [
        WorkUnit("fig6_point", {"app": "HPL", "n": n, "max_nodes": 8})
        for n in (1, 2, 4, 8)
    ]

    def test_each_value_is_yielded_as_it_resolves(self, monkeypatch):
        events = []

        def spy(kind, params, seed=0):
            events.append(("run", params["n"]))
            return execute_unit(kind, params, seed)

        monkeypatch.setattr(units_mod, "execute_unit", spy)
        for i, _value in execute_batch(self.SIMS):
            events.append(("yield", self.SIMS[i].params["n"]))
        assert events == [
            (step, n) for n in (1, 2, 4, 8) for step in ("run", "yield")
        ]

    def test_an_interrupted_in_process_run_keeps_finished_units(
        self, monkeypatch, tmp_path
    ):
        """A cached unit is the checkpoint: when the third unit of a
        ``jobs=1`` batch dies, the first two must already be stored."""
        calls = []

        def dies_third(kind, params, seed=0):
            calls.append(params["n"])
            if len(calls) == 3:
                raise KeyboardInterrupt
            return execute_unit(kind, params, seed)

        monkeypatch.setattr(units_mod, "execute_unit", dies_third)
        cache = ResultCache(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            run_units(self.SIMS, jobs=1, cache=cache)
        assert len(cache._object_files()) == 2
        monkeypatch.undo()
        values = run_units(self.SIMS, jobs=1, cache=cache)
        assert cache.stats.hits == 2
        assert values == [execute_unit(u.kind, u.params) for u in self.SIMS]
