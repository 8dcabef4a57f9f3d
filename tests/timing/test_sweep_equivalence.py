"""Sweep-equivalence suite: the plan-based sweep == the scalar oracle.

The Figure 3/4 frequency sweep prices each operating point in one
scalar pass over a cached per-(platform, cores) plan of the kernel
suite (``SimulatedExecutor.suite_times``, ``PowerMeter.integrate_batch``,
``MobileSoCStudy.sweep_points``); the original one-kernel-at-a-time walk
is preserved as the reference oracle (``_sweep_point_scalar`` /
``_sweep_base_energy_scalar``, or ``REPRO_SCALAR_SWEEP=1``
process-wide).  This suite drives both paths
over randomized platform/frequency/seed grids plus the full golden
figure set and asserts **float-for-float identical** results — ``==``,
never ``approx`` — and unchanged ``.repro-cache`` keys and object
bytes.  Any drift between the two paths fails here before it can
perturb a golden figure.  The same discipline covers the Figure 6
applications: their event-free schedules (``repro.mpi.schedule``)
against the discrete-event engine, per point and per rank.
"""

from __future__ import annotations

import json
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import APPLICATIONS
from repro.apps import base as app_base
from repro.arch.catalog import PLATFORMS
from repro.cluster.cluster import tibidabo
from repro.core.energy_study import energy_to_solution
from repro.core.study import FIG6_FULL_COUNTS, FIG6_QUICK_COUNTS, MobileSoCStudy
from repro.mpi.api import MPIWorld
from repro.net.nic import PCIE, USB3
from repro.net.protocol import OPEN_MX, TCP_IP, ProtocolStack
from repro.parallel import units as punits
from repro.parallel.cache import ResultCache, unit_key
from repro.timing import calibration
from repro.timing.executor import SimulatedExecutor
from repro.timing.measurement import PowerMeter, measure_kernel

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
GOLDENS = DATA / "goldens"

#: Fingerprint pin for key-shape tests: the real fingerprint hashes the
#: package source (any code change rotates it by design), so key
#: *stability* is asserted against a constant.
PINNED_FP = "0" * 64


def _random_freq_grid(rng: random.Random, platform) -> list[float]:
    """A randomized frequency grid: DVFS points, off-grid frequencies,
    shuffled order, and duplicates (the memo-interop case)."""
    freqs = list(platform.soc.dvfs.frequencies())
    freqs += [round(rng.uniform(0.3, 3.0), 3) for _ in range(4)]
    freqs.append(freqs[0])  # duplicate
    rng.shuffle(freqs)
    return freqs


# ---------------------------------------------------------------------------
# Executor level: suite_times == time_kernel, bit for bit.
# ---------------------------------------------------------------------------
class TestExecutorBatch:
    @pytest.mark.parametrize("case", range(6))
    def test_time_kernel_batch_matches_scalar(self, case, kernels):
        """The suite pass's per-kernel times at every frequency of a
        randomized grid against one scalar ``time_kernel`` call per
        entry."""
        rng = random.Random(1000 + case)
        platform = rng.choice(list(PLATFORMS.values()))
        cores = rng.choice([1, platform.soc.n_cores])
        freqs = _random_freq_grid(rng, platform)
        scalar_ex = SimulatedExecutor(platform)
        pass_ex = SimulatedExecutor(platform)
        for f in freqs:
            time_s, mem_s = pass_ex.suite_times(kernels, f, cores)
            want = [scalar_ex.time_kernel(k, f, cores=cores) for k in kernels]
            assert time_s == [run.time_s for run in want]
            assert mem_s == [run.memory_time_s for run in want]

    def test_suite_batch_leaves_the_memo_alone(self, t2, kernels):
        """The pass neither fills nor reads the run memo, and agrees
        with the runs already in it."""
        ex = SimulatedExecutor(t2)
        k = kernels[0]
        scalar_run = ex.time_kernel(k, 1.0, cores=2)
        memo = dict(ex._memo)
        time_s, mem_s = ex.suite_times(kernels, 1.0, cores=2)
        ex.suite_times(kernels, 0.76, cores=2)
        assert ex._memo == memo
        assert time_s[0] == scalar_run.time_s
        assert mem_s[0] == scalar_run.memory_time_s

    def test_batch_validates_like_scalar(self, t2, kernels):
        ex = SimulatedExecutor(t2)
        for bad in (-0.5, 0.0, float("nan")):
            with pytest.raises(ValueError, match="frequency must be positive"):
                ex.suite_times(kernels, bad)
        with pytest.raises(ValueError):
            ex.suite_times(kernels, 1.0, cores=99)
        # So fast that every time underflows to 0, or so slow that a
        # roof is 0: no run, on either path, and never a
        # ZeroDivisionError.
        for extreme in (1e308, 5e-324):
            with pytest.raises(ValueError, match="no finite, positive time"):
                ex.suite_times(kernels, extreme)
            for k in kernels:
                with pytest.raises(ValueError, match="no finite, positive"):
                    ex.time_kernel(k, extreme)

    @pytest.mark.parametrize("case", range(4))
    def test_roofline_batch_matches_scalar(self, case, kernels):
        """The pass's memory time is the scalar :class:`Roofline`'s
        memory-roof time at every point."""
        rng = random.Random(2000 + case)
        platform = rng.choice(list(PLATFORMS.values()))
        cores = rng.choice([1, platform.soc.n_cores])
        freqs = _random_freq_grid(rng, platform)
        ex = SimulatedExecutor(platform)
        for f in freqs:
            _time_s, mem_s = ex.suite_times(kernels, f, cores)
            for i, k in enumerate(kernels):
                profile = k.profile(k.default_size())
                traffic = (
                    profile.cache_traffic if ex.is_resident(profile)
                    else profile.bytes_from_dram
                )
                reps = calibration.passes_for(k.tag)
                roof = ex.roofline(f, cores, profile)
                assert mem_s[i] == roof.time_seconds(0.0, traffic) * reps

    def test_effective_bandwidth_batch_matches_scalar(self, kernels):
        """DVFS points plus a dense off-grid sweep: the L2 roof's
        product order shows only at some frequencies.  The pass's memory
        time equals the scalar one, which divides by
        :meth:`SimulatedExecutor.effective_bandwidth_gbs`."""
        for platform in PLATFORMS.values():
            ex = SimulatedExecutor(platform)
            freqs = list(platform.soc.dvfs.frequencies())
            freqs += np.linspace(freqs[0], freqs[-1], 41).tolist()
            for cores in (1, platform.soc.n_cores):
                for f in freqs:
                    _time_s, mem_s = ex.suite_times(kernels, f, cores)
                    assert mem_s == [
                        ex.memory_time_s(f, cores, k.profile(k.default_size()))
                        * calibration.passes_for(k.tag)
                        for k in kernels
                    ]

    def test_efficiency_table_matches_scalar_lookup(self, kernels):
        for platform in PLATFORMS.values():
            ex = SimulatedExecutor(platform)
            plan = ex._sweep_plan(kernels, 1)
            assert plan is ex._sweep_plan(list(kernels), 1)  # cached
            assert [row.eff for row in plan.rows] == [
                calibration.fp_efficiency(
                    platform.soc.core.name,
                    k.profile(k.default_size()).characteristics,
                )
                for k in kernels
            ]

    def test_one_plan_per_core_count(self, t2, kernels):
        """A call naming another suite replaces the core count's plan,
        so the cache is bounded by the core counts, and a plan never
        serves kernel objects it was not built from."""
        ex = SimulatedExecutor(t2)
        ex.suite_times(kernels, 1.0)
        ex.suite_times(kernels, 1.0, cores=2)
        ex.suite_times(kernels[:3], 1.0)
        assert sorted(ex._sweep_plans) == [1, 2]
        assert ex._sweep_plans[1].kernels == tuple(kernels[:3])
        assert ex.suite_times(kernels[:3], 0.5)[0] == [
            ex.time_kernel(k, 0.5).time_s for k in kernels[:3]
        ]


# ---------------------------------------------------------------------------
# Meter level: one batched draw == the sequential per-kernel draws.
# ---------------------------------------------------------------------------
class TestMeterBatch:
    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_integrate_batch_matches_sequential(self, seed):
        rng = random.Random(seed)
        powers = [rng.uniform(0.5, 40.0) for _ in range(9)]
        durations = [rng.uniform(0.01, 8.0) for _ in range(9)]
        scalar_meter = PowerMeter(seed=seed)
        batch_meter = PowerMeter(seed=seed)
        want = [
            scalar_meter.integrate(p, d) for p, d in zip(powers, durations)
        ]
        got = batch_meter.integrate_batch(powers, durations)
        assert got == want
        # The RNG streams must also end in the same state.
        assert scalar_meter._rng.normal() == batch_meter._rng.normal()

    def test_integrate_batch_validates(self):
        meter = PowerMeter(seed=0)
        with pytest.raises(ValueError):
            meter.integrate_batch([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            meter.integrate_batch([1.0], [0.0])

    def test_measure_kernel_batch_matches_scalar(self, t2, kernels):
        """The sweep's suite metering — one pass, the frequency terms
        of the power priced once, one meter draw — against
        :func:`measure_kernel` per kernel on the same meter stream, and
        the study's per-point pricing against its mean."""
        ex = SimulatedExecutor(t2)
        scalar_meter = PowerMeter(seed=99)
        batch_meter = PowerMeter(seed=99)
        want = [
            measure_kernel(
                t2, k, 1.0, cores=2, meter=scalar_meter, executor=ex
            )
            for k in kernels
        ]
        time_s, mem_s = ex.suite_times(kernels, 1.0, cores=2)
        power = t2.soc.power
        watts = power.frequency_watts(1.0, 2, t2.soc.n_cores)
        powers = [
            watts + power.mem_dynamic_watts * min(1.0, m / t)
            for t, m in zip(time_s, mem_s)
        ]
        assert powers == [
            power.platform_power(
                1.0, 2, t2.soc.n_cores, run.memory_bw_utilisation
            )
            for run, _m in want
        ]
        got = batch_meter.integrate_batch(powers, time_s)
        assert got == [(m.energy_j, m.n_samples) for _run, m in want]
        assert time_s == [m.duration_s for _run, m in want]

        study = MobileSoCStudy()
        label = "sweep:multi:Tegra2:1.0"
        meter = PowerMeter(seed=study._meter_seed(label))
        runs = [
            measure_kernel(t2, k, 1.0, cores=2, meter=meter, executor=ex)
            for k in study.kernels
        ]
        assert study._price_point(t2, 1.0, 2, label) == (
            [run.time_s for run, _m in runs],
            float(np.mean([m.energy_j for _run, m in runs])),
        )

    def test_infinite_sample_count_is_a_value_error(self):
        """A duration whose sample count overflows is refused like a
        non-positive one, on the scalar and the batched draw alike."""
        meter = PowerMeter(seed=0)
        for bad in (float("inf"), 1.7e308, float("nan"), -1.0):
            with pytest.raises(ValueError, match="duration must be positive"):
                meter.integrate(1.0, bad)
            with pytest.raises(ValueError, match="duration must be positive"):
                meter.integrate_batch([1.0, 1.0], [1.0, bad])


# ---------------------------------------------------------------------------
# Study level: sweep_points == the scalar sweep_point loop, any grid.
# ---------------------------------------------------------------------------
class TestSweepEquivalence:
    @pytest.mark.parametrize("study_seed", [0, 7])
    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_sweep_points_matches_scalar_loop(self, mode, study_seed):
        rng = random.Random(31 * study_seed + (mode == "multi"))
        vec = MobileSoCStudy(seed=study_seed)
        oracle = MobileSoCStudy(seed=study_seed)
        plan = vec.sweep_plan()
        points = rng.sample(plan, k=9)
        points.append(points[0])  # duplicate operating point
        rng.shuffle(points)
        got = vec.sweep_points(mode, points)
        want = [
            oracle._sweep_point_scalar(mode, name, freq)
            for name, freq in points
        ]
        assert got == want

    def test_sweep_points_full_plan_default(self):
        vec = MobileSoCStudy()
        oracle = MobileSoCStudy()
        got = vec.sweep_points("single")
        plan = vec.sweep_plan()
        assert len(got) == len(plan)
        want = [
            oracle._sweep_point_scalar("single", name, freq)
            for name, freq in plan
        ]
        assert got == want

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sweep_points_match_oracle_property(self, data):
        """Random platform, mode and seed; a batch of 1-12 off-grid
        in-range frequencies (DVFS edges included) plus an integer one.
        Every point equals the scalar oracle on every field, its
        frequency keeps the caller's type, and the base energy equals
        its oracle too."""
        name = data.draw(st.sampled_from(sorted(PLATFORMS)), label="platform")
        mode = data.draw(st.sampled_from(["single", "multi"]), label="mode")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        dvfs = PLATFORMS[name].soc.dvfs.frequencies()
        lo, hi = min(dvfs), max(dvfs)
        freqs = data.draw(
            st.lists(
                st.one_of(
                    st.floats(lo, hi, allow_nan=False), st.sampled_from(dvfs)
                ),
                min_size=1, max_size=12,
            ),
            label="freqs",
        )
        freqs.append(data.draw(st.integers(1, max(1, int(hi))), label="int"))
        points = [(name, f) for f in freqs]
        vec, oracle = MobileSoCStudy(seed=seed), MobileSoCStudy(seed=seed)
        got = vec.sweep_points(mode, points)
        want = [oracle._sweep_point_scalar(mode, name, f) for f in freqs]
        assert got == want
        assert repr(got) == repr(want)  # 1 stays 1, 1.0 stays 1.0
        assert vec.sweep_base_energy() == oracle._sweep_base_energy_scalar()

    @pytest.mark.parametrize("study_seed", [0, 3])
    def test_sweep_base_energy_matches_scalar(self, study_seed):
        vec = MobileSoCStudy(seed=study_seed)
        oracle = MobileSoCStudy(seed=study_seed)
        assert vec.sweep_base_energy() == oracle._sweep_base_energy_scalar()

    def test_sweep_point_env_escape_hatch(self, monkeypatch):
        """REPRO_SCALAR_SWEEP=1 must route the public entry points to
        the oracle — and the oracle must agree with the default path."""
        vec = MobileSoCStudy()
        default = vec.sweep_point("single", "Tegra2", 0.456)
        monkeypatch.setenv("REPRO_SCALAR_SWEEP", "1")
        forced = MobileSoCStudy().sweep_point("single", "Tegra2", 0.456)
        assert forced == default

    def test_sweep_points_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            MobileSoCStudy().sweep_points("turbo")


def _outcome(fn, *args):
    """``fn(*args)``'s value, or the type and text of the ``ValueError``
    it raised (any other exception propagates and fails the test)."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


#: Frequencies at the ends of the float range: a time that underflows
#: to 0, a roof that is 0, a sample count that overflows.
EXTREME_FREQS = (
    1e308, 1.7976931348623157e308, 5e-324, 1e-310,
    2.2250738585072014e-308, 8.900295434028806e-308,
)


class TestScalarPassDifferential:
    """One point at a time, as ``repro serve`` asks for them: the
    plan-based pass against the scalar oracle on every field."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_single_points_match_oracle_property(self, data):
        name = data.draw(st.sampled_from(sorted(PLATFORMS)), label="platform")
        mode = data.draw(st.sampled_from(["single", "multi"]), label="mode")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        freq = data.draw(
            st.one_of(
                st.floats(0.05, 20.0),
                st.integers(1, 4),
                st.sampled_from(PLATFORMS[name].soc.dvfs.frequencies()),
            ),
            label="freq",
        )
        study, oracle = MobileSoCStudy(seed=seed), MobileSoCStudy(seed=seed)
        study.sweep_points(mode, [(name, 1.0)])  # plans built and reused
        [got] = study.sweep_points(mode, [(name, freq)])
        want = oracle._sweep_point_scalar(mode, name, freq)
        assert got == want
        assert repr(got) == repr(want)

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(PLATFORMS)),
        mode=st.sampled_from(["single", "multi"]),
        freq=st.one_of(
            st.floats(5e-324, 1e-290), st.floats(1e290, 1.7976931348623157e308)
        ),
    )
    def test_extreme_float_range_matches_oracle(self, name, mode, freq):
        """Either both paths answer the same value or both raise
        ``ValueError`` with the same text; never ``ZeroDivisionError``
        or ``OverflowError``."""
        got = _outcome(lambda: MobileSoCStudy().sweep_points(
            mode, [(name, freq)])[0])
        want = _outcome(
            MobileSoCStudy()._sweep_point_scalar, mode, name, freq
        )
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("freq", EXTREME_FREQS)
    def test_extreme_frequencies_are_value_errors(self, freq):
        study, oracle = MobileSoCStudy(), MobileSoCStudy()
        for name in PLATFORMS:
            for mode in ("single", "multi"):
                with pytest.raises(ValueError):
                    study.sweep_points(mode, [(name, freq)])
                with pytest.raises(ValueError):
                    oracle._sweep_point_scalar(mode, name, freq)

    def test_int_and_float_frequency_name_different_meters(self):
        study, oracle = MobileSoCStudy(), MobileSoCStudy()
        as_int, as_float = study.sweep_points(
            "single", [("Tegra2", 1), ("Tegra2", 1.0)]
        )
        assert as_int == oracle._sweep_point_scalar("single", "Tegra2", 1)
        assert as_float == oracle._sweep_point_scalar("single", "Tegra2", 1.0)
        assert repr(as_int["freq_ghz"]) == "1"
        assert as_int["speedup"] == as_float["speedup"]
        assert as_int["energy_j"] != as_float["energy_j"]

    def test_replaced_and_evicted_kernel_is_not_served(self):
        """``register_kernel(..., replace=True)`` and ``evict_kernel``:
        the next sweep prices the new kernel, not a cached plan of the
        old one, against the new kernel's Tegra 2 baseline — what a
        fresh study answers."""
        import dataclasses

        from repro.kernels import registry
        from repro.kernels.registry import all_kernels
        from repro.kernels.vecop import VecOp

        class HeavierVecOp(VecOp):
            def profile(self, n):
                p = super().profile(n)
                return dataclasses.replace(p, flops=p.flops * 40)

        study = MobileSoCStudy()
        point = [("Tegra3", 0.9)]
        stale = study.sweep_points("multi", point)
        old = registry.get_kernel("vecop")
        registry.register_kernel(HeavierVecOp(), replace=True)
        try:
            study.kernels = all_kernels()
            for ex in study._executors.values():
                ex.evict_kernel("vecop")
            got = study.sweep_points("multi", point)
            fresh = MobileSoCStudy()
            assert got == fresh.sweep_points("multi", point)
            assert got == [study._sweep_point_scalar("multi", "Tegra3", 0.9)]
            assert got != stale
        finally:
            registry.register_kernel(old, replace=True)

    def test_swapped_platform_model_gets_fresh_plans(self):
        import dataclasses

        study = MobileSoCStudy()
        point = [("Tegra3", 0.9)]
        before = study.sweep_points("single", point)
        old = study.platforms["Tegra3"]
        soc = dataclasses.replace(
            old.soc, l2_bw_bytes_per_cycle=old.soc.l2_bw_bytes_per_cycle / 4
        )
        study.platforms["Tegra3"] = dataclasses.replace(old, soc=soc)
        got = study.sweep_points("single", point)
        assert got == [study._sweep_point_scalar("single", "Tegra3", 0.9)]
        assert got != before
        assert study._executors["Tegra3"].platform is study.platforms["Tegra3"]


# ---------------------------------------------------------------------------
# Figure 6 app points: event-free schedules == the discrete-event oracle.
# ---------------------------------------------------------------------------
@pytest.fixture
def both_paths(monkeypatch):
    """Run ``fn()`` on the event-free path, then under
    ``REPRO_SCALAR_SWEEP=1`` (the engine oracle), returning both results
    and the per-rank :class:`RankStats` lists each path produced."""
    captured: list[list] = []
    real_clocks, real_run = app_base.Clocks, MPIWorld.run

    class SpyClocks(real_clocks):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            captured.append(self.stats)

    def spy_run(world, *args, **kwargs):
        result = real_run(world, *args, **kwargs)
        captured.append(result.stats)
        return result

    monkeypatch.setattr(app_base, "Clocks", SpyClocks)
    monkeypatch.setattr(MPIWorld, "run", spy_run)

    def run(fn):
        monkeypatch.delenv("REPRO_SCALAR_SWEEP", raising=False)
        captured.clear()
        fast = fn()
        fast_stats = list(captured)
        monkeypatch.setenv("REPRO_SCALAR_SWEEP", "1")
        captured.clear()
        oracle = fn()
        oracle_stats = list(captured)
        monkeypatch.delenv("REPRO_SCALAR_SWEEP")
        return fast, oracle, fast_stats, oracle_stats

    return run


class TestFigure6Equivalence:
    @pytest.mark.parametrize("app_name", sorted(APPLICATIONS))
    def test_app_points_match_des_oracle(self, app_name, both_paths, cluster96):
        """Every app at every full-grid point on the 96-node Tibidabo:
        equal ``AppRunResult`` and equal per-rank stats, exactly."""
        app = APPLICATIONS[app_name]
        counts = [n for n in FIG6_FULL_COUNTS if app.runnable(cluster96, n)]
        assert counts  # PEPC starts at 24 nodes, the rest lower
        fast, oracle, fast_stats, oracle_stats = both_paths(
            lambda: [app.simulate(cluster96, n) for n in counts]
        )
        assert fast == oracle  # AppRunResult dataclasses, exact
        assert len(fast_stats) == len(oracle_stats) == len(counts)
        assert fast_stats == oracle_stats  # RankStats lists, exact

    @pytest.mark.parametrize("n", [2, 3])
    def test_gromacs_self_sends(self, n, both_paths, cluster96):
        """At n = 2 and 3 the +-2/+-3 neighbour offsets wrap onto the
        sending rank itself (shared-memory self-sends)."""
        app = APPLICATIONS["GROMACS"]
        fast, oracle, fast_stats, oracle_stats = both_paths(
            lambda: app.simulate(cluster96, n)
        )
        assert fast == oracle
        assert fast_stats == oracle_stats

    @pytest.mark.parametrize("app_name", ["SPECFEM3D", "HYDRO", "GROMACS"])
    def test_energy_to_solution_matches_oracle(self, app_name, both_paths):
        """The energy artefact's runs: 96 open-MX Tibidabo nodes and a
        16-node Nehalem cluster."""
        fast, oracle, fast_stats, oracle_stats = both_paths(
            lambda: energy_to_solution(app_name)
        )
        assert fast == oracle
        assert len(fast_stats) == 2
        assert fast_stats == oracle_stats

    def test_live_recorder_takes_the_engine_path(self, monkeypatch):
        """Under a live recorder the apps run on the engine, which
        carries the trace instrumentation, even without
        ``REPRO_SCALAR_SWEEP``."""
        from repro.obs import recording

        monkeypatch.delenv("REPRO_SCALAR_SWEEP", raising=False)
        app = APPLICATIONS["HYDRO"]
        cluster = tibidabo(4)
        with recording() as rec:
            traced = app.simulate(cluster, 4)
        assert traced == app.simulate(cluster, 4)
        assert {"compute", "comm", "wait", "net"} <= {s.cat for s in rec.spans}
        assert any(i.name.startswith("step:rank") for i in rec.instants)


# ---------------------------------------------------------------------------
# Protocol curves: the array pass == the per-size scalar walk.
# ---------------------------------------------------------------------------
class TestLatencyCurveBatch:
    STACKS = [
        (TCP_IP, PCIE, "Cortex-A9", 1.0),
        (OPEN_MX, PCIE, "Cortex-A9", 1.0),
        (OPEN_MX, USB3, "Cortex-A15", 1.4),
    ]

    #: Sizes straddling the Open-MX rendezvous threshold, plus 0.
    SIZES = (0, 1, 64, 4096, 32767, 32768, 32769, 1 << 20)

    @pytest.mark.parametrize("config", range(len(STACKS)))
    def test_latency_curve_matches_scalar(self, config):
        proto, attach, core, freq = self.STACKS[config]
        batch_stack = ProtocolStack(proto, attach, core_name=core, freq_ghz=freq)
        scalar_stack = ProtocolStack(proto, attach, core_name=core, freq_ghz=freq)
        curve = batch_stack.latency_curve_us(self.SIZES)
        for i, s in enumerate(self.SIZES):
            assert float(curve[i]) == scalar_stack.one_way_latency_us(s)
        # The array pass seeds the same per-size memo the scalar reads.
        assert batch_stack._lat_memo == scalar_stack._lat_memo

    def test_latency_curve_validates(self):
        stack = ProtocolStack(TCP_IP)
        with pytest.raises(ValueError):
            stack.latency_curve_us([-1])


# ---------------------------------------------------------------------------
# Cache keys and object bytes: a cache warmed pre-vectorization still
# hits post-vectorization (keys are functions of coordinates + code
# fingerprint only, and unit values are bit-identical either way).
# ---------------------------------------------------------------------------
class TestCacheStability:
    def test_unit_key_shape_is_pinned(self):
        """The key material (schema/kind/params/seed/fingerprint JSON)
        must not change shape: golden hashes under a pinned
        fingerprint.  A failure here means every deployed cache is
        silently invalidated — bump SCHEMA_VERSION instead."""
        assert (
            unit_key("sweep_base", {}, 0, fingerprint=PINNED_FP)
            == "4493313a54387c3629e7b343e3dd9b92a27dbc3475c1db759ffdddf30406250b"
        )
        assert (
            unit_key(
                "sweep_point",
                {"mode": "single", "platform": "Tegra2", "freq": 0.456},
                0,
                fingerprint=PINNED_FP,
            )
            == "6992386bedfd56a83151a40292ed74354d4b9eaae1a0fc487c9be95ef62ce71d"
        )

    def test_object_bytes_scalar_vs_vectorized(self, tmp_path, monkeypatch):
        """Execute representative units under both paths and compare the
        stored object files byte for byte."""
        probe = MobileSoCStudy()
        plan = probe.sweep_plan()
        units = [
            ("sweep_base", {}),
            ("sweep_point", {"mode": "single", "platform": plan[0][0],
                             "freq": plan[0][1]}),
            ("sweep_point", {"mode": "multi", "platform": plan[-1][0],
                             "freq": plan[-1][1]}),
            ("fig6_point", {"app": "HPL", "n": 4, "max_nodes": 4}),
            ("headline", {"n_nodes": 16}),
        ]
        roots = {}
        for label, scalar in (("vec", False), ("scalar", True)):
            if scalar:
                monkeypatch.setenv("REPRO_SCALAR_SWEEP", "1")
            else:
                monkeypatch.delenv("REPRO_SCALAR_SWEEP", raising=False)
            # Fresh study and cluster memos so each pass recomputes
            # from cold.
            punits._plan_study.cache_clear()
            punits._cluster_for.cache_clear()
            root = tmp_path / label
            cache = ResultCache(root, max_bytes=0)
            for kind, params in units:
                key = unit_key(kind, params, 0, fingerprint=PINNED_FP)
                cache.put(key, punits.execute_unit(kind, params, 0), kind=kind)
            roots[label] = root
        # Leave no study memoized under the scalar oracle behind.
        punits._plan_study.cache_clear()
        punits._cluster_for.cache_clear()
        vec_files = sorted(
            p.relative_to(roots["vec"]) for p in roots["vec"].rglob("*.json")
        )
        scalar_files = sorted(
            p.relative_to(roots["scalar"])
            for p in roots["scalar"].rglob("*.json")
        )
        assert vec_files == scalar_files  # identical keys -> identical paths
        assert vec_files  # sanity: something was stored
        for rel in vec_files:
            assert (roots["vec"] / rel).read_bytes() == (
                roots["scalar"] / rel
            ).read_bytes()


# ---------------------------------------------------------------------------
# Golden figures: the default campaign reproduces the committed JSON
# byte for byte (regenerate with --update-goldens after an *intended*
# model change).
# ---------------------------------------------------------------------------
class TestGoldenFigures:
    def _produced(self):
        study = MobileSoCStudy()
        return {
            "figure3.json": study.figure3(),
            "figure4.json": study.figure4(),
            "figure6.json": study.figure6(FIG6_QUICK_COUNTS),
            "figure7.json": study.figure7(),
            "headline.json": study.headline_hpl(),
        }

    def test_campaign_matches_committed_goldens(self, update_goldens):
        produced = self._produced()
        GOLDENS.mkdir(parents=True, exist_ok=True)
        diverged = []
        for fname, obj in sorted(produced.items()):
            # Same serialisation as `repro all --json-dir` (cli.py).
            text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
            path = GOLDENS / fname
            if update_goldens:
                path.write_text(text)
                continue
            assert path.exists(), (
                f"golden {fname} missing — rerun with --update-goldens"
            )
            if text != path.read_text():
                diverged.append(fname)
        if update_goldens:
            pytest.skip("campaign goldens updated")
        assert not diverged, (
            f"campaign JSON diverged from committed goldens: {diverged}; "
            "if the model change is intentional, rerun with "
            "--update-goldens"
        )

    def test_goldens_are_nontrivial(self):
        for fname in (
            "figure3.json", "figure4.json", "figure6.json", "figure7.json",
            "headline.json",
        ):
            doc = json.loads((GOLDENS / fname).read_text())
            assert doc  # non-empty
        headline = json.loads((GOLDENS / "headline.json").read_text())
        assert set(headline) >= {"gflops", "efficiency", "mflops_per_watt"}
