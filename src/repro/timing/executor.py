"""Simulated executor: kernel profile x platform model -> time.

This is the heart of the single-SoC evaluation (Figures 3 and 4).  For a
kernel iteration it computes

* a **compute time** from the FP work and the calibrated achieved
  fraction of peak (:func:`repro.timing.calibration.fp_efficiency`),
  floored by the instruction-issue time of the full mix,
* a **memory time** with two regimes: when the working set is resident in
  the last-level cache (the suite's default sizes — the reason the paper
  sees performance scale linearly with frequency), the roof is the
  on-chip cache bandwidth, which scales with core frequency; when the
  working set spills (STREAM-sized inputs), the roof is the DRAM model's
  effective bandwidth, and
* takes the max (roofline overlap), then adds Amdahl serial fraction,
  load imbalance, and OpenMP barrier/fork-join overheads for the
  multi-threaded case.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.arch.soc import Platform
from repro.kernels.base import Kernel, OperationProfile
from repro.timing import calibration
from repro.timing.roofline import Roofline, RooflineBatch

#: Per-executor bound on memoized runs (LRU).  The full campaign keeps
#: at most ~130 runs per platform (frequencies x kernels x 2 core
#: counts); a long-lived server timing off-grid points would otherwise
#: grow the memo without limit (~460 bytes a run).
MEMO_LIMIT = 4096


@dataclass(frozen=True)
class SimulatedRun:
    """Outcome of one simulated kernel iteration."""

    kernel: str
    platform: str
    freq_ghz: float
    cores: int
    time_s: float
    compute_time_s: float
    memory_time_s: float
    overhead_time_s: float
    flops: float
    bound: str  # "compute" | "memory"

    @property
    def achieved_gflops(self) -> float:
        return self.flops / self.time_s / 1e9 if self.time_s > 0 else 0.0

    @property
    def memory_bw_utilisation(self) -> float:
        """Fraction of the iteration spent waiting on memory — used as the
        memory-activity factor by the power model."""
        return min(1.0, self.memory_time_s / self.time_s) if self.time_s else 0.0


@dataclass(frozen=True, slots=True)
class _BandwidthTerms:
    """The frequency-independent terms of a kernel's memory roof at one
    core count: resident kernels scale on-chip bandwidth with the clock,
    streaming ones see a fixed, derated DRAM bandwidth."""

    resident: bool
    l2_bytes_per_cycle: float  #: resident: the SoC's L2 bytes per cycle
    l2_scale: float            #: resident: core-contention L2 scale
    l2_factor: float           #: resident: L2 pattern derate
    dram_bw: float             #: streaming: derated DRAM bandwidth (GB/s)

    def at(self, f: np.ndarray) -> np.ndarray:
        """The roof's bandwidth (GB/s) at each frequency of ``f``
        (mirrors ``SoC.l2_bandwidth_gbs`` inline so the resident roof
        stays one scalar-by-array multiply chain)."""
        if self.resident:
            bw = self.l2_bytes_per_cycle * f * self.l2_scale
            return bw * self.l2_factor
        return np.full(f.shape, self.dram_bw)


@dataclass(frozen=True, slots=True)
class _KernelPlan:
    """The frequency-independent terms of one kernel at one core count
    (and size/passes): everything :meth:`SimulatedExecutor.
    time_kernel_batch` would otherwise recompute per call.  Each field
    is the value the scalar model computes before it first touches the
    frequency, so the batch arithmetic that consumes them performs the
    scalar path's IEEE operations in the scalar path's order."""

    flops: float            #: FP work of one pass
    total_flops: float      #: ``flops * reps``
    eff: float              #: achieved fraction of peak
    issue_cycles: float
    abi_penalty: float
    par_scale: float | None  #: Amdahl + imbalance factor; None = 1 core
    bandwidth: _BandwidthTerms
    traffic: float          #: bytes per pass from the roof's memory level
    barrier_cores: float    #: ``BARRIER_US_PER_THREAD_AT_1GHZ * cores``
    barriers: float         #: barriers per iteration
    reps: int


class SimulatedExecutor:
    """Times kernel iterations on one platform model.

    :param platform: the platform under test.
    :param abi: ``"hardfp"`` (the paper's custom images) or ``"softfp"``
        (distribution default on ARMv7 — Section 6.2's penalty).
    """

    def __init__(self, platform: Platform, abi: str = "hardfp") -> None:
        if abi not in ("hardfp", "softfp"):
            raise ValueError("abi must be 'hardfp' or 'softfp'")
        self.platform = platform
        self.abi = abi
        # (kernel, freq, cores, size, passes) -> SimulatedRun, LRU-capped
        # at MEMO_LIMIT.  The run is a frozen dataclass, so sharing one
        # instance across callers is safe; kernels hash by identity
        # (registry singletons), so two distinct kernel objects can
        # never alias a cache entry.  The lock makes the LRU bookkeeping
        # safe when a serving process times sweeps from two threads.
        self._memo: OrderedDict[tuple, SimulatedRun] = OrderedDict()
        self._memo_lock = threading.Lock()
        # (kernel, cores, size, passes) -> _KernelPlan: the frequency-
        # independent terms of time_kernel_batch, built once.
        self._plans: dict[tuple, _KernelPlan] = {}
        # Per-µarch efficiency tables: kernel-tag tuple -> fp-efficiency
        # array, built once per executor (see :meth:`efficiency_table`).
        self._eff_tables: dict[tuple[str, ...], np.ndarray] = {}

    # ------------------------------------------------------------------
    def _abi_penalty(self) -> float:
        if self.abi == "hardfp":
            return 1.0
        isa = self.platform.soc.core.isa
        # softfp only costs on ISAs whose default ABI is soft-float.
        return isa.softfp_call_penalty() if not isa.hardfp_abi else 1.0

    def is_resident(self, profile: OperationProfile) -> bool:
        """Whether the working set fits the platform's last-level cache."""
        return (
            profile.working_set_bytes
            <= self.platform.soc.last_level_cache_bytes()
        )

    def effective_bandwidth_gbs(
        self, freq_ghz: float, cores: int, profile: OperationProfile
    ) -> float:
        """Pattern-derated memory-roof bandwidth for this kernel: on-chip
        cache bandwidth when resident, DRAM bandwidth when streaming."""
        soc = self.platform.soc
        if self.is_resident(profile):
            bw = soc.l2_bandwidth_gbs(freq_ghz, cores)
            return bw * calibration.PATTERN_L2_FACTOR[profile.pattern]
        bw = soc.memory.effective_bandwidth_gbs(cores, soc.core.mlp)
        return bw * calibration.pattern_bandwidth_factor(profile.pattern)

    def memory_time_s(
        self, freq_ghz: float, cores: int, profile: OperationProfile
    ) -> float:
        """Memory component of one pass (seconds)."""
        bw = self.effective_bandwidth_gbs(freq_ghz, cores, profile)
        traffic = (
            profile.cache_traffic
            if self.is_resident(profile)
            else profile.bytes_from_dram
        )
        return traffic / (bw * 1e9)

    def roofline(self, freq_ghz: float, cores: int, profile: OperationProfile) -> Roofline:
        """The roofline this kernel sees at this operating point."""
        soc = self.platform.soc
        eff = calibration.fp_efficiency(soc.core.name, profile.characteristics)
        peak = soc.core.peak_gflops(freq_ghz) * cores * eff
        return Roofline(
            peak, self.effective_bandwidth_gbs(freq_ghz, cores, profile)
        )

    # ------------------------------------------------------------------
    # Batched (operating-point-axis) evaluation.  Every method below is
    # the elementwise twin of its scalar counterpart: identical IEEE
    # operations applied in the identical order, so entry ``i`` of every
    # array equals the scalar result at ``freqs[i]`` bit-for-bit.  The
    # sweep-equivalence suite (tests/timing/test_sweep_equivalence.py)
    # enforces the contract; REPRO_SCALAR_SWEEP=1 forces callers back to
    # the scalar oracle.
    # ------------------------------------------------------------------
    def efficiency_table(self, kernels: Sequence[Kernel]) -> np.ndarray:
        """Per-kernel achieved-fraction-of-peak of this µarch as one
        array, computed once per executor and kernel set — the per-µarch
        efficiency table the batched sweep indexes instead of re-walking
        the scalar lookup at every operating point."""
        key = tuple(k.tag for k in kernels)
        cached = self._eff_tables.get(key)
        if cached is None:
            core = self.platform.soc.core.name
            cached = self._eff_tables[key] = np.array(
                [
                    calibration.fp_efficiency(
                        core, k.profile(k.default_size()).characteristics
                    )
                    for k in kernels
                ]
            )
        return cached

    def _bandwidth_terms(
        self, cores: int, profile: OperationProfile
    ) -> _BandwidthTerms:
        """The frequency-independent half of
        :meth:`effective_bandwidth_gbs`, for the batched twins."""
        soc = self.platform.soc
        if not self.is_resident(profile):
            bw = soc.memory.effective_bandwidth_gbs(cores, soc.core.mlp)
            return _BandwidthTerms(
                False, 0.0, 0.0, 0.0,
                bw * calibration.pattern_bandwidth_factor(profile.pattern),
            )
        if cores == 1:
            scale = 1.0
        elif soc.l2_shared:
            scale = min(
                1.0 + calibration.SHARED_L2_CORE_SCALING * (cores - 1),
                calibration.SHARED_L2_SCALING_CAP,
            )
        else:
            scale = float(cores)
        return _BandwidthTerms(
            True, soc.l2_bw_bytes_per_cycle, scale,
            calibration.PATTERN_L2_FACTOR[profile.pattern], 0.0,
        )

    def effective_bandwidth_gbs_batch(
        self, freqs: Sequence[float], cores: int, profile: OperationProfile
    ) -> np.ndarray:
        """Elementwise twin of :meth:`effective_bandwidth_gbs` over a
        frequency array."""
        f = np.asarray(freqs, dtype=float)
        if np.any(f <= 0):
            raise ValueError("frequency must be positive")
        if not (1 <= cores <= self.platform.soc.n_cores):
            raise ValueError("cores out of range")
        return self._bandwidth_terms(cores, profile).at(f)

    def roofline_batch(
        self, freqs: Sequence[float], cores: int, profile: OperationProfile
    ) -> RooflineBatch:
        """The rooflines this kernel sees across a frequency batch."""
        soc = self.platform.soc
        f = np.asarray(freqs, dtype=float)
        eff = calibration.fp_efficiency(soc.core.name, profile.characteristics)
        peak = soc.core.fp64_flops_per_cycle * f * cores * eff
        return RooflineBatch(
            peak, self.effective_bandwidth_gbs_batch(f, cores, profile)
        )

    # ------------------------------------------------------------------
    def time_kernel(
        self,
        kernel: Kernel,
        freq_ghz: float,
        cores: int = 1,
        size: int | None = None,
        passes: int | None = None,
    ) -> SimulatedRun:
        """Simulate one *iteration* (``passes`` internal sweeps) of a kernel.

        ``passes`` defaults to the calibrated per-kernel count that makes
        a Tegra 2 iteration last ~3 s (see ``calibration.py``).

        Results are memoized per executor: the figure 3/4 sweeps and the
        speedup tables re-time identical (kernel, frequency, cores)
        points hundreds of times, and the computation is a pure function
        of those arguments and the platform model.
        """
        key = (kernel, freq_ghz, cores, size, passes)
        cached = self._memo_get(key)
        if cached is not None:
            return cached
        soc = self.platform.soc
        if freq_ghz <= 0:
            raise ValueError("frequency must be positive")
        if not (1 <= cores <= soc.n_cores):
            raise ValueError(
                f"cores must be in [1, {soc.n_cores}] for {self.platform.name}"
            )
        n = kernel.default_size() if size is None else size
        reps = calibration.passes_for(kernel.tag) if passes is None else passes
        profile = kernel.profile(n)
        ch = profile.characteristics

        # --- single-core compute time ---------------------------------
        eff = calibration.fp_efficiency(soc.core.name, ch)
        achieved_gflops_1 = soc.core.peak_gflops(freq_ghz) * eff
        t_fp = profile.flops / (achieved_gflops_1 * 1e9)
        # Issue floor: even FLOP-free work (msort) occupies issue slots.
        issue_cycles = soc.core.issue_cycles(profile.mix)
        t_issue = issue_cycles / (freq_ghz * 1e9)
        t_comp1 = max(t_fp, t_issue) * self._abi_penalty()

        # --- parallel compute time (Amdahl + imbalance) ----------------
        pf = ch.parallel_fraction
        if cores == 1:
            t_comp = t_comp1
        else:
            t_comp = t_comp1 * (
                (1.0 - pf) + pf * ch.load_imbalance / cores
            )

        # --- memory time ------------------------------------------------
        t_mem = self.memory_time_s(freq_ghz, cores, profile)

        # --- synchronisation overhead ----------------------------------
        t_over = 0.0
        if cores > 1:
            per_barrier = (
                calibration.BARRIER_US_PER_THREAD_AT_1GHZ * cores / freq_ghz
            ) * 1e-6
            t_over = (
                ch.barriers_per_iteration * per_barrier
                + calibration.FORK_JOIN_US_AT_1GHZ / freq_ghz * 1e-6
            )

        t_pass = max(t_comp, t_mem) + t_over
        bound = "memory" if t_mem > t_comp else "compute"
        run = SimulatedRun(
            kernel=kernel.tag,
            platform=self.platform.name,
            freq_ghz=freq_ghz,
            cores=cores,
            time_s=t_pass * reps,
            compute_time_s=t_comp * reps,
            memory_time_s=t_mem * reps,
            overhead_time_s=t_over * reps,
            flops=profile.flops * reps,
            bound=bound,
        )
        self._memo_put(key, run)
        return run

    def time_kernel_batch(
        self,
        kernel: Kernel,
        freqs: Sequence[float],
        cores: int = 1,
        size: int | None = None,
        passes: int | None = None,
    ) -> list[SimulatedRun]:
        """:meth:`time_kernel` over a whole frequency batch at once.

        Already-memoized points are served from the executor memo;
        missing points are computed as NumPy array ops over the
        operating-point axis, replaying the scalar model's operation
        order element by element so every returned run is bit-identical
        to the scalar path.  Computed points are stored into the memo,
        so a later scalar ``time_kernel`` call returns the very same
        frozen run object (the property the measurement path and the
        on-disk result cache rely on).
        """
        freqs = [float(f) for f in freqs]
        out: list[SimulatedRun | None] = [
            self._memo_get((kernel, f, cores, size, passes)) for f in freqs
        ]
        missing = [i for i, run in enumerate(out) if run is None]
        if not missing:
            return out
        soc = self.platform.soc
        f = np.array([freqs[i] for i in missing], dtype=float)
        if np.any(f <= 0):
            raise ValueError("frequency must be positive")
        plan = self._plan(kernel, cores, size, passes)

        # --- single-core compute time (cf. time_kernel) ----------------
        achieved_gflops_1 = soc.core.fp64_flops_per_cycle * f * plan.eff
        t_fp = plan.flops / (achieved_gflops_1 * 1e9)
        t_issue = plan.issue_cycles / (f * 1e9)
        t_comp = np.maximum(t_fp, t_issue) * plan.abi_penalty

        # --- parallel compute time -------------------------------------
        if plan.par_scale is not None:
            t_comp = t_comp * plan.par_scale

        # --- memory time -----------------------------------------------
        t_mem = plan.traffic / (plan.bandwidth.at(f) * 1e9)

        # --- synchronisation overhead ----------------------------------
        if cores > 1:
            per_barrier = (plan.barrier_cores / f) * 1e-6
            t_over = (
                plan.barriers * per_barrier
                + calibration.FORK_JOIN_US_AT_1GHZ / f * 1e-6
            )
        else:
            t_over = np.zeros_like(f)

        t_pass = np.maximum(t_comp, t_mem) + t_over
        reps = plan.reps
        for i, tp, tc, tm, to in zip(
            missing, t_pass.tolist(), t_comp.tolist(), t_mem.tolist(),
            t_over.tolist(),
        ):
            out[i] = run = SimulatedRun(
                kernel=kernel.tag,
                platform=self.platform.name,
                freq_ghz=freqs[i],
                cores=cores,
                time_s=tp * reps,
                compute_time_s=tc * reps,
                memory_time_s=tm * reps,
                overhead_time_s=to * reps,
                flops=plan.total_flops,
                bound="memory" if tm > tc else "compute",
            )
            self._memo_put((kernel, freqs[i], cores, size, passes), run)
        return out

    def _plan(
        self, kernel: Kernel, cores: int, size: int | None, passes: int | None
    ) -> _KernelPlan:
        """The cached :class:`_KernelPlan` of ``kernel`` at ``cores``;
        validates ``cores`` on first build."""
        key = (kernel, cores, size, passes)
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        soc = self.platform.soc
        if not (1 <= cores <= soc.n_cores):
            raise ValueError(
                f"cores must be in [1, {soc.n_cores}] for {self.platform.name}"
            )
        n = kernel.default_size() if size is None else size
        reps = calibration.passes_for(kernel.tag) if passes is None else passes
        profile = kernel.profile(n)
        ch = profile.characteristics
        pf = ch.parallel_fraction
        bandwidth = self._bandwidth_terms(cores, profile)
        plan = self._plans[key] = _KernelPlan(
            flops=profile.flops,
            total_flops=profile.flops * reps,
            eff=calibration.fp_efficiency(soc.core.name, ch),
            issue_cycles=soc.core.issue_cycles(profile.mix),
            abi_penalty=self._abi_penalty(),
            par_scale=(
                None if cores == 1
                else (1.0 - pf) + pf * ch.load_imbalance / cores
            ),
            bandwidth=bandwidth,
            traffic=(
                profile.cache_traffic
                if bandwidth.resident
                else profile.bytes_from_dram
            ),
            barrier_cores=calibration.BARRIER_US_PER_THREAD_AT_1GHZ * cores,
            barriers=ch.barriers_per_iteration,
            reps=reps,
        )
        return plan

    def _memo_get(self, key: tuple) -> SimulatedRun | None:
        with self._memo_lock:
            run = self._memo.get(key)
            if run is not None:
                self._memo.move_to_end(key)
            return run

    def _memo_put(self, key: tuple, run: SimulatedRun) -> None:
        with self._memo_lock:
            self._memo[key] = run
            self._memo.move_to_end(key)
            if len(self._memo) > MEMO_LIMIT:
                self._memo.popitem(last=False)

    def evict_kernel(self, kernel_or_tag: Kernel | str) -> int:
        """Drop every memoized run (and kernel plan) of one kernel, by
        object or by tag.

        The memo keys kernels by identity, so re-registering a kernel
        implementation under an existing tag would otherwise keep this
        executor serving runs of the replaced object forever.  Returns
        the number of entries dropped."""
        if isinstance(kernel_or_tag, str):
            def doomed(key: tuple) -> bool:
                return key[0].tag == kernel_or_tag
        else:
            def doomed(key: tuple) -> bool:
                return key[0] is kernel_or_tag
        for key in [key for key in self._plans if doomed(key)]:
            del self._plans[key]
        with self._memo_lock:
            keys = [key for key in self._memo if doomed(key)]
            for key in keys:
                del self._memo[key]
        return len(keys)

    def time_suite(
        self,
        kernels: list[Kernel],
        freq_ghz: float,
        cores: int = 1,
    ) -> dict[str, SimulatedRun]:
        """Time the whole suite; returns tag -> run."""
        return {
            k.tag: self.time_kernel(k, freq_ghz, cores=cores) for k in kernels
        }
