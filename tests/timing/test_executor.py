"""Tests for the simulated executor — the Figure 3/4 engine.

The class ``TestPaperAnchors`` pins the model to the ratios the paper
publishes; if calibration drifts, these fail.
"""

import numpy as np
import pytest

from repro.kernels.registry import all_kernels, get_kernel
from repro.timing.executor import SimulatedExecutor


def geomean(xs):
    return float(np.exp(np.mean(np.log(xs))))


def suite_speedup(base_platform, platform, freq, cores=1, base_cores=1):
    ks = all_kernels()
    base = SimulatedExecutor(base_platform)
    ex = SimulatedExecutor(platform)
    return geomean(
        [
            base.time_kernel(k, 1.0, cores=base_cores).time_s
            / ex.time_kernel(k, freq, cores=cores).time_s
            for k in ks
        ]
    )


class TestIterationCalibration:
    def test_tegra2_iterations_near_three_seconds(self, t2, kernels):
        """The published energies/iteration imply ~3 s Tegra 2
        iterations; every kernel must land in [2.4, 3.6] s."""
        ex = SimulatedExecutor(t2)
        for k in kernels:
            t = ex.time_kernel(k, 1.0).time_s
            assert 2.4 <= t <= 3.6, (k.tag, t)


class TestPaperAnchors:
    def test_tegra3_nine_percent_faster(self, t2, t3):
        s = suite_speedup(t2, t3, 1.0)
        assert s == pytest.approx(1.09, abs=0.04)

    def test_exynos_thirty_percent_faster(self, t2, exynos):
        s = suite_speedup(t2, exynos, 1.0)
        assert s == pytest.approx(1.30, abs=0.08)

    def test_exynos_twentytwo_percent_over_tegra3(self, t3, exynos):
        s = suite_speedup(t3, exynos, 1.0)
        assert s == pytest.approx(1.22, abs=0.06)

    def test_i7_twice_exynos_at_1ghz(self, t2, exynos, i7):
        ratio = suite_speedup(t2, i7, 1.0) / suite_speedup(t2, exynos, 1.0)
        assert ratio == pytest.approx(2.0, abs=0.25)

    def test_max_frequency_ladder(self, t2, t3, exynos, i7):
        """Tegra3@max = 1.36x, Exynos@max = 2.3x, i7@max = 3x Exynos."""
        assert suite_speedup(t2, t3, 1.3) == pytest.approx(1.36, abs=0.12)
        assert suite_speedup(t2, exynos, 1.7) == pytest.approx(2.3, abs=0.2)
        ratio = suite_speedup(t2, i7, 2.4) / suite_speedup(t2, exynos, 1.7)
        assert ratio == pytest.approx(3.0, abs=0.35)

    def test_tegra2_eight_times_slower_than_i7(self, t2, i7):
        """Section 4: 'almost eight times slower ... at their maximum
        operating frequencies'."""
        s = suite_speedup(t2, i7, 2.4)
        assert 6.0 <= s <= 8.5


class TestFrequencyScaling:
    def test_performance_linear_in_frequency(self, t2, kernels):
        """Section 3.1.1: 'performance improves linearly as the
        frequency is increased' — cache-resident working sets."""
        ex = SimulatedExecutor(t2)
        for k in kernels:
            t_half = ex.time_kernel(k, 0.5).time_s
            t_full = ex.time_kernel(k, 1.0).time_s
            assert t_half / t_full == pytest.approx(2.0, rel=0.05), k.tag

    def test_invalid_frequency(self, t2):
        with pytest.raises(ValueError):
            SimulatedExecutor(t2).time_kernel(get_kernel("vecop"), 0.0)


class TestMulticore:
    def test_speedup_bounded_by_cores(self, platforms, kernels):
        for p in platforms.values():
            ex = SimulatedExecutor(p)
            n = p.soc.n_cores
            for k in kernels:
                t1 = ex.time_kernel(k, 1.0, cores=1).time_s
                tn = ex.time_kernel(k, 1.0, cores=n).time_s
                assert t1 / tn <= n + 1e-6, (p.name, k.tag)
                assert t1 / tn >= 1.0, (p.name, k.tag)

    def test_multicore_improves_all_kernels(self, t2, kernels):
        """Section 3.1.2: multithreading improved performance in all
        cases."""
        ex = SimulatedExecutor(t2)
        for k in kernels:
            t1 = ex.time_kernel(k, 1.0, cores=1).time_s
            t2c = ex.time_kernel(k, 1.0, cores=2).time_s
            assert t2c < t1, k.tag

    def test_amcd_scales_nearly_perfectly(self, i7):
        """Embarrassingly parallel: near-ideal multicore scaling."""
        ex = SimulatedExecutor(i7)
        k = get_kernel("amcd")
        t1 = ex.time_kernel(k, 2.4, cores=1).time_s
        t4 = ex.time_kernel(k, 2.4, cores=4).time_s
        assert t1 / t4 > 3.6

    def test_cores_validated(self, t2):
        with pytest.raises(ValueError):
            SimulatedExecutor(t2).time_kernel(get_kernel("vecop"), 1.0, cores=3)


class TestBoundClassification:
    def test_dmmm_compute_bound_everywhere(self, platforms):
        for p in platforms.values():
            run = SimulatedExecutor(p).time_kernel(get_kernel("dmmm"), 1.0)
            assert run.bound == "compute", p.name

    def test_vecop_memory_bound_on_arm(self, t2, exynos):
        for p in (t2, exynos):
            run = SimulatedExecutor(p).time_kernel(get_kernel("vecop"), 1.0)
            assert run.bound == "memory", p.name

    def test_achieved_gflops_below_peak(self, platforms, kernels):
        for p in platforms.values():
            ex = SimulatedExecutor(p)
            for k in kernels:
                run = ex.time_kernel(k, 1.0, cores=1)
                assert run.achieved_gflops <= p.soc.core.peak_gflops(1.0)

    def test_memory_utilisation_in_unit_range(self, t2, kernels):
        ex = SimulatedExecutor(t2)
        for k in kernels:
            run = ex.time_kernel(k, 1.0)
            assert 0.0 <= run.memory_bw_utilisation <= 1.0


class TestABI:
    def test_softfp_slows_arm_only(self, t2, i7):
        """Section 6.2: soft-float calling conventions reduce FP
        performance on ARMv7; x86 is unaffected."""
        k = get_kernel("dmmm")
        hard = SimulatedExecutor(t2, abi="hardfp").time_kernel(k, 1.0).time_s
        soft = SimulatedExecutor(t2, abi="softfp").time_kernel(k, 1.0).time_s
        assert soft > hard * 1.05
        hard_i7 = SimulatedExecutor(i7, abi="hardfp").time_kernel(k, 1.0).time_s
        soft_i7 = SimulatedExecutor(i7, abi="softfp").time_kernel(k, 1.0).time_s
        assert soft_i7 == pytest.approx(hard_i7)

    def test_invalid_abi(self, t2):
        with pytest.raises(ValueError):
            SimulatedExecutor(t2, abi="mixed")


class TestStreamingRegime:
    def test_oversized_working_set_uses_dram(self, t2):
        """A working set beyond the LLC must switch to the (slower,
        frequency-independent) DRAM regime."""
        ex = SimulatedExecutor(t2)
        k = get_kernel("vecop")
        big = 4_000_000  # 96 MB working set
        prof = k.profile(big)
        assert not ex.is_resident(prof)
        t1 = ex.time_kernel(k, 1.0, size=big, passes=1).time_s
        t_half = ex.time_kernel(k, 0.5, size=big, passes=1).time_s
        # Memory-bound streaming barely cares about CPU frequency.
        assert t_half / t1 < 1.3

    def test_resident_faster_per_byte_than_streaming(self, t2):
        ex = SimulatedExecutor(t2)
        k = get_kernel("vecop")
        small = ex.time_kernel(k, 1.0, size=12_000, passes=1)
        big = ex.time_kernel(k, 1.0, size=4_000_000, passes=1)
        per_byte_small = small.time_s / (12_000 * 24)
        per_byte_big = big.time_s / (4_000_000 * 24)
        assert per_byte_small < per_byte_big


class TestMemoEviction:
    """Regression: the executor memo keys kernels by *identity*, so a
    kernel re-registered under the same tag leaves the memo serving the
    replaced object's runs (and pinning it alive) until evicted."""

    def _fresh_vecop(self):
        from repro.kernels.vecop import VecOp

        return VecOp()

    def test_reregistration_requires_replace_flag(self):
        from repro.kernels import registry

        with pytest.raises(ValueError):
            registry.register_kernel(self._fresh_vecop())

    def test_evict_after_reregistration(self, t2):
        from repro.kernels import registry

        ex = SimulatedExecutor(t2)
        old = registry.get_kernel("vecop")
        old_run = ex.time_kernel(old, 1.0)
        ex.time_kernel(old, 0.76, cores=2)
        clone = self._fresh_vecop()
        registry.register_kernel(clone, replace=True)
        try:
            assert registry.get_kernel("vecop") is clone
            # The stale identity still hits the memo — the hazard.
            assert ex.time_kernel(old, 1.0) is old_run
            dropped = ex.evict_kernel("vecop")
            assert dropped == 2
            assert not any(key[0].tag == "vecop" for key in ex._memo)
            # Retiming the replacement reproduces the same numbers (the
            # model is a pure function of tag + profile, not identity).
            fresh = ex.time_kernel(clone, 1.0)
            assert fresh is not old_run
            assert fresh == old_run
        finally:
            registry.register_kernel(old, replace=True)

    def test_evict_by_object_only_drops_that_identity(self, t2):
        ex = SimulatedExecutor(t2)
        vecop = get_kernel("vecop")
        dmmm = get_kernel("dmmm")
        ex.time_kernel(vecop, 1.0)
        ex.time_kernel(dmmm, 1.0)
        assert ex.evict_kernel(vecop) == 1
        assert ex.evict_kernel(vecop) == 0  # idempotent
        assert any(key[0].tag == "dmmm" for key in ex._memo)

    def test_batch_repopulates_after_eviction(self, t2):
        """time_kernel_batch and time_kernel agree across an eviction."""
        ex = SimulatedExecutor(t2)
        k = get_kernel("vecop")
        before = ex.time_kernel_batch(k, [0.456, 1.0])
        ex.evict_kernel("vecop")
        after = ex.time_kernel_batch(k, [0.456, 1.0])
        assert after == before
        assert after[0] is not before[0]

    def test_evict_drops_the_kernel_plan(self, t2):
        ex = SimulatedExecutor(t2)
        vecop = get_kernel("vecop")
        dmmm = get_kernel("dmmm")
        ex.time_kernel_batch(vecop, [0.5, 1.0], cores=2)
        ex.time_kernel_batch(dmmm, [0.5], cores=2)
        ex.evict_kernel("vecop")
        assert not any(key[0] is vecop for key in ex._plans)
        assert any(key[0] is dmmm for key in ex._plans)


class TestMemoBound:
    """The memo is an LRU capped at MEMO_LIMIT runs: a long-lived
    server timing off-grid points must not grow it without limit."""

    def test_memo_stays_under_cap_and_values_unchanged(self, t2, monkeypatch):
        from repro.timing import executor as executor_mod

        monkeypatch.setattr(executor_mod, "MEMO_LIMIT", 40)
        ex = SimulatedExecutor(t2)
        k = get_kernel("vecop")
        freqs = list(np.linspace(0.25, 1.0, 90))
        batch = ex.time_kernel_batch(k, freqs, cores=2)
        assert len(ex._memo) <= 40
        scalar = [ex.time_kernel(k, f, cores=2) for f in freqs]
        assert len(ex._memo) <= 40
        reference = SimulatedExecutor(t2)
        assert batch == scalar == [
            reference.time_kernel(k, f, cores=2) for f in freqs
        ]

    def test_lru_keeps_recently_used_runs(self, t2, monkeypatch):
        from repro.timing import executor as executor_mod

        monkeypatch.setattr(executor_mod, "MEMO_LIMIT", 3)
        ex = SimulatedExecutor(t2)
        k = get_kernel("vecop")
        first = ex.time_kernel(k, 0.5)
        ex.time_kernel(k, 0.6)
        ex.time_kernel(k, 0.7)
        assert ex.time_kernel(k, 0.5) is first  # hit refreshes recency
        ex.time_kernel(k, 0.8)  # evicts 0.6, the least recently used
        assert ex.time_kernel(k, 0.5) is first
        assert (k, 0.6, 1, None, None) not in ex._memo

    def test_cap_exceeds_the_full_campaign(self):
        from repro.core.study import MobileSoCStudy
        from repro.timing.executor import MEMO_LIMIT

        study = MobileSoCStudy()
        study.figure3()
        study.figure4()
        assert max(len(ex._memo) for ex in study._executors.values()) < MEMO_LIMIT
