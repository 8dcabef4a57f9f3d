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

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from repro.arch.soc import Platform
from repro.kernels.base import Kernel, OperationProfile
from repro.timing import calibration
from repro.timing.roofline import Roofline

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


class _KernelPlan(NamedTuple):
    """The frequency-independent terms of one kernel at one core count,
    default size and pass count: each field is the value the scalar
    model computes before it first touches the frequency, so the suite
    pass that consumes them performs the scalar path's IEEE operations
    in the scalar path's order.  A plain tuple, unpacked in one step."""

    flops: float            #: FP work of one pass
    eff: float              #: achieved fraction of peak
    issue_cycles: float
    par_scale: float | None  #: Amdahl + imbalance factor; None = 1 core
    resident: bool          #: working set fits the last-level cache
    l2_factor: float        #: resident: L2 pattern derate
    dram_bw: float          #: streaming: derated DRAM bandwidth (GB/s)
    traffic: float          #: bytes per pass from the roof's memory level
    barriers: float         #: barriers per iteration
    reps: int


@dataclass(frozen=True, slots=True)
class _SweepPlan:
    """A kernel suite's :class:`_KernelPlan` rows at one core count and
    the terms every kernel shares, read by
    :meth:`SimulatedExecutor.suite_times` at each operating point.
    ``kernels`` is the suite it was built for: a plan serves only a
    call naming the same kernel objects."""

    kernels: tuple[Kernel, ...]
    rows: tuple[_KernelPlan, ...]
    fp64_per_cycle: float
    abi_penalty: float
    l2_bytes_per_cycle: float  #: the SoC's L2 bytes per cycle
    l2_scale: float            #: core-contention L2 scale
    barrier_cores: float       #: ``BARRIER_US_PER_THREAD_AT_1GHZ * cores``


def _no_time(freq_ghz: float) -> ValueError:
    return ValueError(f"no finite, positive time at {freq_ghz!r} GHz")


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
        # cores -> _SweepPlan: the frequency-independent terms of
        # suite_times, built once per core count (one suite at a time:
        # a call naming other kernels replaces it).  A plan is stored
        # only once it is complete, so a sweep on another thread never
        # sees half of one.
        self._sweep_plans: dict[int, _SweepPlan] = {}

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
        try:
            run = self._simulate(kernel, freq_ghz, cores, size, passes)
        except ZeroDivisionError:  # a frequency so small a roof is 0
            raise _no_time(freq_ghz) from None
        self._memo_put(key, run)
        return run

    def _simulate(
        self,
        kernel: Kernel,
        freq_ghz: float,
        cores: int,
        size: int | None,
        passes: int | None,
    ) -> SimulatedRun:
        """:meth:`time_kernel`'s model, unmemoized."""
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
        time_s = t_pass * reps
        if not 0.0 < time_s < math.inf:
            raise _no_time(freq_ghz)
        bound = "memory" if t_mem > t_comp else "compute"
        return SimulatedRun(
            kernel=kernel.tag,
            platform=self.platform.name,
            freq_ghz=freq_ghz,
            cores=cores,
            time_s=time_s,
            compute_time_s=t_comp * reps,
            memory_time_s=t_mem * reps,
            overhead_time_s=t_over * reps,
            flops=profile.flops * reps,
            bound=bound,
        )

    def suite_times(
        self,
        kernels: Sequence[Kernel],
        freq_ghz: float,
        cores: int = 1,
    ) -> tuple[list[float], list[float]]:
        """``(time_s, memory_time_s)`` of every kernel of ``kernels`` at
        one operating point, at each kernel's default size and pass
        count, as two lists of Python floats.

        Entry ``i`` equals ``time_kernel(kernels[i], freq_ghz, cores)``'s
        ``time_s`` and ``memory_time_s`` bit for bit: the pass reads the
        suite's cached plan and performs the scalar model's IEEE
        operations in the scalar model's order, on the caller's
        frequency as given (enforced by
        tests/timing/test_sweep_equivalence.py).  It neither reads nor
        fills the run memo.
        """
        if not freq_ghz > 0:
            raise ValueError("frequency must be positive")
        plan = self._sweep_plan(kernels, cores)
        # The terms every kernel shares, in the scalar expressions'
        # shapes: peak_gflops, l2_bandwidth_gbs, the barrier cost.
        peak = plan.fp64_per_cycle * freq_ghz
        cycles = freq_ghz * 1e9
        l2 = plan.l2_bytes_per_cycle * freq_ghz * plan.l2_scale
        abi = plan.abi_penalty
        multi = cores > 1
        if multi:
            per_barrier = (plan.barrier_cores / freq_ghz) * 1e-6
            fork = calibration.FORK_JOIN_US_AT_1GHZ / freq_ghz * 1e-6
        times: list[float] = []
        mems: list[float] = []
        try:
            for (flops, eff, issue, par, resident, l2_factor, dram_bw,
                 traffic, barriers, reps) in plan.rows:
                t_comp = max(flops / (peak * eff * 1e9), issue / cycles) * abi
                if par is not None:
                    t_comp = t_comp * par
                bw = l2 * l2_factor if resident else dram_bw
                t_mem = traffic / (bw * 1e9)
                t_pass = max(t_comp, t_mem)
                if multi:
                    t_pass = t_pass + (barriers * per_barrier + fork)
                time_s = t_pass * reps
                if not 0.0 < time_s < math.inf:
                    raise _no_time(freq_ghz)
                times.append(time_s)
                mems.append(t_mem * reps)
        except ZeroDivisionError:  # a frequency so small a roof is 0
            raise _no_time(freq_ghz) from None
        return times, mems

    def _sweep_plan(self, kernels: Sequence[Kernel], cores: int) -> _SweepPlan:
        """The cached :class:`_SweepPlan` of ``kernels`` at ``cores``;
        validates ``cores`` on first build."""
        plan = self._sweep_plans.get(cores)
        suite = tuple(kernels)
        if plan is not None and plan.kernels == suite:
            return plan
        soc = self.platform.soc
        if not (1 <= cores <= soc.n_cores):
            raise ValueError(
                f"cores must be in [1, {soc.n_cores}] for {self.platform.name}"
            )
        plan = self._sweep_plans[cores] = _SweepPlan(
            kernels=suite,
            rows=tuple(self._kernel_plan(k, cores) for k in suite),
            fp64_per_cycle=soc.core.fp64_flops_per_cycle,
            abi_penalty=self._abi_penalty(),
            l2_bytes_per_cycle=soc.l2_bw_bytes_per_cycle,
            l2_scale=soc.l2_core_scale(cores),
            barrier_cores=calibration.BARRIER_US_PER_THREAD_AT_1GHZ * cores,
        )
        return plan

    def _kernel_plan(self, kernel: Kernel, cores: int) -> _KernelPlan:
        """The :class:`_KernelPlan` of ``kernel`` at ``cores``."""
        soc = self.platform.soc
        profile = kernel.profile(kernel.default_size())
        ch = profile.characteristics
        pf = ch.parallel_fraction
        resident = self.is_resident(profile)
        return _KernelPlan(
            flops=profile.flops,
            eff=calibration.fp_efficiency(soc.core.name, ch),
            issue_cycles=soc.core.issue_cycles(profile.mix),
            par_scale=(
                None if cores == 1
                else (1.0 - pf) + pf * ch.load_imbalance / cores
            ),
            resident=resident,
            l2_factor=(
                calibration.PATTERN_L2_FACTOR[profile.pattern]
                if resident else 0.0
            ),
            dram_bw=(
                0.0 if resident
                else soc.memory.effective_bandwidth_gbs(cores, soc.core.mlp)
                * calibration.pattern_bandwidth_factor(profile.pattern)
            ),
            traffic=(
                profile.cache_traffic if resident else profile.bytes_from_dram
            ),
            barriers=ch.barriers_per_iteration,
            reps=calibration.passes_for(kernel.tag),
        )

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
        """Drop every memoized run and sweep plan of one kernel, by
        object or by tag.

        The memo keys kernels by identity, so re-registering a kernel
        implementation under an existing tag would otherwise keep this
        executor serving runs of the replaced object forever.  Returns
        the number of memoized runs dropped."""
        if isinstance(kernel_or_tag, str):
            def doomed(kernel: Kernel) -> bool:
                return kernel.tag == kernel_or_tag
        else:
            def doomed(kernel: Kernel) -> bool:
                return kernel is kernel_or_tag
        for cores, plan in list(self._sweep_plans.items()):
            if any(map(doomed, plan.kernels)):
                del self._sweep_plans[cores]
        with self._memo_lock:
            keys = [key for key in self._memo if doomed(key[0])]
            for key in keys:
                del self._memo[key]
        return len(keys)
