"""In-process unit execution through ``run_units``: each cache miss is
one ``execute_unit`` call in input order, bit-identical to running the
unit alone, the scalar oracle under ``REPRO_SCALAR_SWEEP=1``, per-unit
failure isolation for ``safe=True``, and every value cached the moment
it is computed."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.study import MobileSoCStudy
from repro.parallel import units as units_mod
from repro.parallel.cache import ResultCache
from repro.parallel.runner import UnitFailure, run_units
from repro.parallel.units import WorkUnit, execute_unit


def canon(data) -> str:
    return json.dumps(data, sort_keys=True)


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


def alone(unit):
    """``execute_unit``'s value for ``unit``, or the ``UnitFailure``
    ``run_units(safe=True)`` must put in its slot."""
    try:
        return execute_unit(unit.kind, unit.params)
    except Exception as exc:  # noqa: BLE001 - the oracle of containment
        return UnitFailure(f"{type(exc).__name__}: {exc}", exc)


class TestGrouping:
    """Each unit's value is the one ``execute_unit`` gives it alone."""

    def test_bit_identical_to_one_unit_at_a_time(self):
        assert canon(run_units(MIXED)) == canon([alone(u) for u in MIXED])

    def test_scalar_oracle_under_env_flag(self, monkeypatch):
        fast = run_units(MIXED)
        priced = []
        price_point = MobileSoCStudy._price_point

        def spy(self, *args):
            priced.append(args)
            return price_point(self, *args)

        monkeypatch.setattr(MobileSoCStudy, "_price_point", spy)
        monkeypatch.setenv("REPRO_SCALAR_SWEEP", "1")
        scalar = run_units(MIXED)
        assert priced == []  # the plan-based pass never ran
        assert canon(scalar) == canon(fast)
        study = MobileSoCStudy()
        assert scalar[0] == study._sweep_point_scalar("single", "Tegra2", 0.777)


VALID = st.builds(
    sweep,
    st.sampled_from(["single", "multi"]),
    st.sampled_from(["Tegra2", "Tegra3", "Exynos5250", "Corei7-2760QM"]),
    st.floats(0.2, 3.0),
)
INVALID = st.one_of(
    st.builds(sweep, st.just("single"), st.just("Tegra2"),
              st.floats(-2.0, 0.0)),
    st.builds(sweep, st.just("multi"), st.just("Tegra3"),
              st.sampled_from(["1.0", None, True, [1.0]])),
    st.builds(sweep, st.just("single"), st.sampled_from(["NoSuch", 3]),
              st.just(1.0)),
    st.builds(lambda freq: WorkUnit(
        "sweep_point", {"platform": "Tegra2", "freq": freq}),
        st.floats(0.5, 2.0)),
)


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
        for value in values[1:]:
            assert isinstance(value, UnitFailure)
            assert isinstance(value.exc, ValueError)  # the caller's error
        assert values[1].error == "ValueError: frequency must be positive"
        assert values[3].error == "ValueError: sweep_point needs 'mode'"

    def test_unsafe_run_raises_the_first_bad_units_own_error(self):
        with pytest.raises(ValueError, match="frequency must be positive"):
            run_units(self.BATCH)

    def test_failures_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_units(self.BATCH, cache=cache, safe=True)
        assert len(cache._object_files()) == 1

    @settings(max_examples=40, deadline=None)
    @given(batch=st.lists(
        st.one_of(VALID, INVALID, st.just(WorkUnit("sweep_base", {}))),
        max_size=6,
    ))
    def test_safe_run_matches_each_unit_alone(self, batch):
        """Differential: slot ``i`` of a safe run is ``execute_unit``'s
        value for unit ``i``, or a failure with its exact error text."""
        got = run_units(batch, safe=True)
        want = [alone(u) for u in batch]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert type(g) is type(w)
            assert g == w


class TestCheckpointing:
    SIMS = [
        WorkUnit("fig6_point", {"app": "HPL", "n": n, "max_nodes": 8})
        for n in (1, 2, 4, 8)
    ]

    def test_each_value_is_written_as_it_resolves(
        self, monkeypatch, tmp_path
    ):
        """Unit ``i``'s value is in the cache before unit ``i + 1``
        starts."""
        events = []
        put = ResultCache.put

        def spy_unit(kind, params, seed=0):
            events.append(("run", params["n"]))
            return execute_unit(kind, params, seed)

        def spy_put(self, key, value, kind=""):
            events.append(("write", value["n_nodes"]))
            return put(self, key, value, kind=kind)

        monkeypatch.setattr(units_mod, "execute_unit", spy_unit)
        monkeypatch.setattr(ResultCache, "put", spy_put)
        run_units(self.SIMS, cache=ResultCache(tmp_path))
        assert events == [
            (step, n) for n in (1, 2, 4, 8) for step in ("run", "write")
        ]

    def test_an_interrupted_in_process_run_keeps_finished_units(
        self, monkeypatch, tmp_path
    ):
        """A cached unit is the checkpoint: when the third unit of a
        batch dies, the first two must already be stored."""
        calls = []

        def dies_third(kind, params, seed=0):
            calls.append(params["n"])
            if len(calls) == 3:
                raise KeyboardInterrupt
            return execute_unit(kind, params, seed)

        monkeypatch.setattr(units_mod, "execute_unit", dies_third)
        cache = ResultCache(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            run_units(self.SIMS, cache=cache, safe=True)
        assert len(cache._object_files()) == 2
        monkeypatch.undo()
        values = run_units(self.SIMS, cache=cache)
        assert cache.stats.hits == 2
        assert values == [execute_unit(u.kind, u.params) for u in self.SIMS]
