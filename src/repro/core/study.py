"""The study orchestrator: one object that regenerates every artefact.

Each ``figureN``/``tableN`` method returns plain data structures (dicts
of series) that the benchmark harness prints and EXPERIMENTS.md records;
:meth:`MobileSoCStudy.run_all` executes the full campaign.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import os
from typing import Any

import numpy as np

from repro.apps import APPLICATIONS, ScalingStudy
from repro.apps.hpl import HPL
from repro.arch.catalog import PLATFORMS, armv8_projection, get_platform
from repro.cluster.cluster import tibidabo
from repro.cluster.power import ClusterPowerModel
from repro.core import metrics, top500, trends
from repro.kernels.registry import all_kernels, table2_rows
from repro.kernels.stream import StreamBenchmark
from repro.mpi.benchmarks import bandwidth_curve, latency_curve
from repro.net.nic import PCIE, USB3
from repro.net.protocol import OPEN_MX, TCP_IP, ProtocolStack
from repro.timing.executor import SimulatedExecutor
from repro.timing.measurement import PowerMeter, measure_kernel


def _scalar_sweep() -> bool:
    """Whether ``REPRO_SCALAR_SWEEP=1`` forces the scalar reference
    oracle instead of the plan-based sweep pass (checked at call time so a
    test can flip it per case)."""
    return bool(os.environ.get("REPRO_SCALAR_SWEEP"))

#: Figure 7 configurations: (label, protocol, attachment, core, freq).
FIG7_CONFIGS = (
    ("Tegra2 TCP/IP 1.0GHz", TCP_IP, PCIE, "Cortex-A9", 1.0),
    ("Tegra2 OpenMX 1.0GHz", OPEN_MX, PCIE, "Cortex-A9", 1.0),
    ("Exynos5 TCP/IP 1.0GHz", TCP_IP, USB3, "Cortex-A15", 1.0),
    ("Exynos5 OpenMX 1.0GHz", OPEN_MX, USB3, "Cortex-A15", 1.0),
    ("Exynos5 TCP/IP 1.4GHz", TCP_IP, USB3, "Cortex-A15", 1.4),
    ("Exynos5 OpenMX 1.4GHz", OPEN_MX, USB3, "Cortex-A15", 1.4),
)


#: Figure 6 node counts: the full campaign grid and the trimmed "quick"
#: grid (``run_all(quick=True)`` and the CI smoke campaign).
FIG6_FULL_COUNTS = (1, 2, 4, 8, 16, 24, 32, 48, 64, 96)
FIG6_QUICK_COUNTS = (1, 4, 16, 48, 96)

#: The headline result's keys, in the order
#: :meth:`MobileSoCStudy.headline_hpl` builds them and ``repro headline``
#: prints them.  The result cache stores values key-sorted, so the
#: campaign merge restores this order.
HEADLINE_KEYS = (
    "n_nodes", "gflops", "efficiency", "mflops_per_watt", "total_power_w",
)


def figure6_counts(
    app, cluster, node_counts: tuple[int, ...]
) -> tuple[int, ...] | None:
    """The node counts ``app`` actually runs at for a Figure 6 campaign
    over ``node_counts``, or ``None`` when the campaign scale cannot fit
    it at all.  Shared by the serial path and the sharded runner so both
    decompose the figure identically."""
    floor = app.min_nodes(cluster)
    counts = tuple(n for n in node_counts if n >= floor)
    if not counts:
        if floor > cluster.n_nodes:
            return None
        counts = (floor,)  # at least the anchor point
    return counts


def _check_sweep_freq(freq: Any) -> None:
    """``ValueError`` unless ``freq`` is a finite, positive real number
    (a bool or a string is a client error, not a frequency)."""
    if isinstance(freq, bool) or not isinstance(freq, numbers.Real):
        raise ValueError(f"frequency must be a number, not {freq!r}")
    try:
        finite = math.isfinite(freq)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ValueError(f"frequency must be finite, not {freq!r}")
    if freq <= 0:
        raise ValueError("frequency must be positive")


def _sweep_result(
    freq: float, speedup: float, energy: float
) -> dict[str, float]:
    """One sweep point's value; ``ValueError`` when an extreme frequency
    overflows its speedup or energy (no client can use an infinity)."""
    if not (speedup < math.inf and energy < math.inf):
        raise ValueError(f"no finite speedup and energy at {freq!r} GHz")
    return {"freq_ghz": freq, "speedup": speedup, "energy_j": energy}


def _geomean(xs: list[float]) -> float:
    if not xs:
        raise ValueError("geometric mean of an empty sequence is undefined")
    if any(x <= 0 for x in xs):
        raise ValueError("geometric mean requires strictly positive values")
    # np.mean's value (numpy's sum divided by the count), without its
    # Python-level dispatch.
    return float(np.exp(np.add.reduce(np.log(xs)) / len(xs)))


class MobileSoCStudy:
    """Reproduces the complete SC'13 evaluation."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.platforms = dict(PLATFORMS)
        self.kernels = all_kernels()
        self.baseline = get_platform("Tegra2")
        # Executors are cached per platform so their memoized kernel
        # timings survive across figures — figure 3, figure 4, the
        # speedup tables and the comparison report all re-time the same
        # operating points.  Keyed by platform *name* with an identity
        # guard: a swapped-in platform model replaces (and releases) the
        # old executor, and the table stays bounded by the number of
        # platform names rather than growing one entry per object
        # identity (``id()`` keys resurrect after reuse and pin dropped
        # platform models alive through the executor's back-reference).
        self._executors: dict[str, SimulatedExecutor] = {}
        self._base_times: dict[str, float] | None = None
        # Memoized figure-level results; the parallel campaign runner
        # pre-seeds this so rendering after a sharded run is free.
        self._results_memo: dict[tuple, Any] = {}

    def _executor(self, platform) -> SimulatedExecutor:
        """The memoizing executor for ``platform`` (name-keyed with an
        identity guard, so a swapped platform model gets a fresh
        executor and its sweep plans, and the stale one is released;
        the guard costs no field-by-field comparison per point)."""
        ex = self._executors.get(platform.name)
        if ex is None or ex.platform is not platform:
            ex = SimulatedExecutor(platform)
            self._executors[platform.name] = ex
        return ex

    def baseline_times(self) -> dict[str, float]:
        """Tegra 2 @1 GHz serial per-kernel times — the denominator of
        every speedup in Figures 3/4; computed once per study."""
        if self._base_times is None:
            base_ex = self._executor(self.baseline)
            self._base_times = {
                k.tag: base_ex.time_kernel(k, 1.0, cores=1).time_s
                for k in self.kernels
            }
        return self._base_times

    # ------------------------------------------------------------------
    # Section 1 artefacts.
    # ------------------------------------------------------------------
    def figure1(self) -> dict[str, Any]:
        """TOP500 architecture-share series."""
        return {
            cat: top500.share_series(cat) for cat in ("x86", "risc", "vector")
        }

    def figure2a(self) -> dict[str, Any]:
        """Vector vs commodity micro trends, 1975-2000."""
        vec = trends.fit_exponential(top500.VECTOR_PROCESSORS)
        mic = trends.fit_exponential(top500.MICRO_PROCESSORS)
        return {
            "vector_points": top500.VECTOR_PROCESSORS,
            "micro_points": top500.MICRO_PROCESSORS,
            "vector_fit": vec,
            "micro_fit": mic,
            "gap_1995": trends.gap_ratio(vec, mic, 1995.0),
        }

    def figure2b(self) -> dict[str, Any]:
        """Server vs mobile trends, 1990-2015."""
        srv = trends.fit_exponential(top500.SERVER_PROCESSORS)
        mob = trends.fit_exponential(top500.MOBILE_PROCESSORS)
        return {
            "server_points": top500.SERVER_PROCESSORS,
            "mobile_points": top500.MOBILE_PROCESSORS,
            "server_fit": srv,
            "mobile_fit": mob,
            "gap_2013": trends.gap_ratio(srv, mob, 2013.0),
            "crossover_year": trends.crossover_year(mob, srv),
            "price_ratio": trends.price_ratio_mobile_vs_hpc(),
        }

    # ------------------------------------------------------------------
    # Section 3 artefacts.
    # ------------------------------------------------------------------
    def table1(self) -> list[dict[str, Any]]:
        return [p.describe() for p in self.platforms.values()]

    def table2(self) -> list[dict[str, str]]:
        return table2_rows()

    # -- sweep work units ----------------------------------------------
    # Figures 3/4 decompose into independent (mode, platform, freq)
    # operating points plus one baseline-energy point.  Every point owns
    # a PowerMeter seeded from a content hash of its coordinates, so a
    # point computes the same bits in any process and batch order, or
    # straight out of the on-disk result cache — the property the
    # campaign runner (repro.parallel) and repro.serve rely on.

    def _meter_seed(self, label: str) -> int:
        """Deterministic, process-independent meter seed for one
        measurement unit (hash-randomisation immune)."""
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def _sweep_platform(self, name: Any):
        """The platform a sweep point names; ``ValueError`` (a client
        error, not a crash) for anything but a known platform name."""
        platform = self.platforms.get(name) if isinstance(name, str) else None
        if platform is None:
            raise ValueError(
                f"unknown platform {name!r} "
                f"(one of: {', '.join(self.platforms)})"
            )
        return platform

    def _price_point(
        self, platform, freq_ghz: float, cores: int, label: str,
    ) -> tuple[list[float], float]:
        """Per-kernel times and the mean metered energy of the kernel
        suite at one operating point, in one scalar pass: the
        executor's :meth:`~SimulatedExecutor.suite_times`, then what
        :func:`measure_kernel` meters per kernel, drawn from the point's
        own ``PowerMeter`` in kernel order in one batched draw."""
        times, mems = self._executor(platform).suite_times(
            self.kernels, freq_ghz, cores
        )
        power = platform.soc.power
        watts = power.frequency_watts(freq_ghz, cores, platform.soc.n_cores)
        mem_watts = power.mem_dynamic_watts
        powers = [
            watts + mem_watts * min(1.0, m / t) for t, m in zip(times, mems)
        ]
        meter = PowerMeter(seed=self._meter_seed(label))
        energies = [e for e, _n in meter.integrate_batch(powers, times)]
        # np.mean's value: numpy's sum divided by the count.
        return times, float(np.add.reduce(energies) / len(energies))

    def sweep_base_energy(self) -> float:
        """Mean per-kernel energy of Tegra 2 @1 GHz serial — the
        denominator of every ``energy_norm`` in Figures 3/4."""
        if _scalar_sweep():
            return self._sweep_base_energy_scalar()
        return self._price_point(self.baseline, 1.0, 1, "sweep:base")[1]

    def _sweep_base_energy_scalar(self) -> float:
        """Scalar reference oracle for :meth:`sweep_base_energy` (one
        meter draw per kernel) — kept verbatim for the equivalence
        suite and the ``REPRO_SCALAR_SWEEP=1`` escape hatch."""
        meter = PowerMeter(seed=self._meter_seed("sweep:base"))
        base_ex = self._executor(self.baseline)
        return float(
            np.mean(
                [
                    measure_kernel(
                        self.baseline, k, 1.0, cores=1,
                        meter=meter, executor=base_ex,
                    )[1].energy_j
                    for k in self.kernels
                ]
            )
        )

    def sweep_point(
        self, mode: str, platform_name: str, freq_ghz: float
    ) -> dict[str, float]:
        """One Figure 3/4 operating point: geometric-mean speedup over
        the kernel suite plus the *absolute* mean energy (normalisation
        happens at merge time, against :meth:`sweep_base_energy`).

        Routes through :meth:`sweep_points` (the campaign units in
        :mod:`repro.parallel` and ``repro serve`` therefore get the
        plan-based pass by default, with unchanged unit granularity and
        cache keys); ``REPRO_SCALAR_SWEEP=1`` forces the scalar oracle.
        """
        if _scalar_sweep():
            return self._sweep_point_scalar(mode, platform_name, freq_ghz)
        return self.sweep_points(mode, [(platform_name, freq_ghz)])[0]

    def _sweep_point_scalar(
        self, mode: str, platform_name: str, freq_ghz: float
    ) -> dict[str, float]:
        """Scalar reference oracle for one operating point — the
        original one-kernel-at-a-time walk through ``time_kernel`` and
        ``measure_kernel``, kept so the equivalence suite has ground
        truth to diff the plan-based pass against."""
        if mode not in ("single", "multi"):
            raise ValueError(f"unknown sweep mode {mode!r}")
        platform = self._sweep_platform(platform_name)
        _check_sweep_freq(freq_ghz)
        cores = 1 if mode == "single" else platform.soc.n_cores
        ex = self._executor(platform)
        base_times = self.baseline_times()
        meter = PowerMeter(
            seed=self._meter_seed(f"sweep:{mode}:{platform_name}:{freq_ghz!r}")
        )
        sp = _geomean(
            [
                base_times[k.tag]
                / ex.time_kernel(k, freq_ghz, cores=cores).time_s
                for k in self.kernels
            ]
        )
        energy = float(
            np.mean(
                [
                    measure_kernel(
                        platform, k, freq_ghz, cores=cores,
                        meter=meter, executor=ex,
                    )[1].energy_j
                    for k in self.kernels
                ]
            )
        )
        return _sweep_result(freq_ghz, sp, energy)

    def sweep_points(
        self,
        mode: str,
        points: list[tuple[str, float]] | None = None,
    ) -> list[dict[str, float]]:
        """Figure 3/4 evaluation over many operating points.

        ``points`` defaults to the full :meth:`sweep_plan` grid.  Each
        point is priced in one scalar pass (:meth:`_price_point`) over
        the executor's cached plan of the kernel suite at the mode's
        core count.  Energy keeps the per-point sha256-seeded meter
        streams exactly: each point owns its own :class:`PowerMeter`,
        which draws the whole kernel suite in one call.  Results are
        bit-identical to the scalar :meth:`_sweep_point_scalar` loop, in
        ``points`` order (enforced by
        tests/timing/test_sweep_equivalence.py).  A point that names an
        unknown platform, or a frequency that is not a finite positive
        number or has no finite result, raises ``ValueError``.
        """
        if mode not in ("single", "multi"):
            raise ValueError(f"unknown sweep mode {mode!r}")
        if points is None:
            points = self.sweep_plan()
        for name, freq in points:
            self._sweep_platform(name)
            _check_sweep_freq(freq)
        base_times = self.baseline_times()
        base = [base_times[k.tag] for k in self.kernels]
        out = []
        for name, freq in points:
            platform = self.platforms[name]
            cores = 1 if mode == "single" else platform.soc.n_cores
            # The seed and the reported frequency keep the caller's
            # value as given: 1 and 1.0 name different meters.
            times, energy = self._price_point(
                platform, freq, cores, f"sweep:{mode}:{name}:{freq!r}"
            )
            sp = _geomean([b / t for b, t in zip(base, times)])
            out.append(_sweep_result(freq, sp, energy))
        return out

    def sweep_plan(self) -> list[tuple[str, float]]:
        """The (platform, frequency) grid of Figures 3/4, in the
        deterministic order the serial path walks it."""
        return [
            (name, freq)
            for name, platform in self.platforms.items()
            for freq in platform.soc.dvfs.frequencies()
        ]

    def _sweep(self, cores_mode: str) -> dict[str, list[dict[str, float]]]:
        """Frequency sweep shared by Figures 3 and 4.

        Baseline for both figures: Tegra 2 at 1 GHz *serial* (the Figure
        4 y-axis reaching ~16x only works against the serial baseline).
        Speedup is the geometric mean over the kernel suite; energy is
        the mean per-iteration energy normalised to the baseline's.
        """
        base_energy = self.sweep_base_energy()
        plan = self.sweep_plan()
        if _scalar_sweep():
            pts = [self.sweep_point(cores_mode, name, freq) for name, freq in plan]
        else:
            pts = self.sweep_points(cores_mode, plan)
        out: dict[str, list[dict[str, float]]] = {}
        for (name, _freq), pt in zip(plan, pts):
            out.setdefault(name, []).append(
                {
                    "freq_ghz": pt["freq_ghz"],
                    "speedup": pt["speedup"],
                    "energy_norm": pt["energy_j"] / base_energy,
                }
            )
        return out

    def speedup_vs_baseline(
        self, platform_name: str, freq_ghz: float, cores: int = 1
    ) -> float:
        """Geometric-mean kernel speedup of a platform operating point
        over Tegra 2 @1 GHz serial — the Figure 3 y-axis, computable at
        arbitrary frequencies (the i7 has no exact 1 GHz DVFS point)."""
        base_times = self.baseline_times()
        ex = self._executor(self.platforms[platform_name])
        return _geomean(
            [
                base_times[k.tag]
                / ex.time_kernel(k, freq_ghz, cores=cores).time_s
                for k in self.kernels
            ]
        )

    def per_kernel_speedups(
        self, platform_name: str, freq_ghz: float, cores: int = 1
    ) -> dict[str, float]:
        """Per-kernel speedup over Tegra 2 @1 GHz serial — the breakdown
        behind the Figure 3 averages.  Section 3.1.1 attributes Tegra 3's
        aggregate gain to "memory-intensive micro-kernels"; this view
        makes that attribution testable."""
        base_times = self.baseline_times()
        ex = self._executor(self.platforms[platform_name])
        return {
            k.tag: base_times[k.tag]
            / ex.time_kernel(k, freq_ghz, cores=cores).time_s
            for k in self.kernels
        }

    def figure3(self) -> dict[str, list[dict[str, float]]]:
        """Single-core performance/energy frequency sweep."""
        key = ("figure3",)
        if key not in self._results_memo:
            self._results_memo[key] = self._sweep("single")
        return self._results_memo[key]

    def figure4(self) -> dict[str, list[dict[str, float]]]:
        """Multi-core (OpenMP, all cores) frequency sweep."""
        key = ("figure4",)
        if key not in self._results_memo:
            self._results_memo[key] = self._sweep("multi")
        return self._results_memo[key]

    def figure5(self) -> dict[str, dict[str, Any]]:
        """STREAM bandwidth, single core and full SoC."""
        bench = StreamBenchmark()
        out: dict[str, dict[str, Any]] = {}
        for name, platform in self.platforms.items():
            out[name] = {
                "single": bench.simulate(platform, 1).bandwidth_gbs,
                "multi": bench.simulate_all_cores(platform).bandwidth_gbs,
                "efficiency_vs_peak": bench.efficiency_vs_peak(platform),
            }
        return out

    # ------------------------------------------------------------------
    # Section 4 artefacts.
    # ------------------------------------------------------------------
    def figure6(
        self,
        node_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 24, 32, 48, 64, 96),
    ) -> dict[str, dict[int, float]]:
        """Application speed-up curves on Tibidabo."""
        key = ("figure6", tuple(node_counts))
        if key in self._results_memo:
            return self._results_memo[key]
        cluster = tibidabo(max(node_counts))
        out: dict[str, dict[int, float]] = {}
        for name, app in APPLICATIONS.items():
            counts = figure6_counts(app, cluster, node_counts)
            if counts is None:
                continue  # cannot run at this campaign scale at all
            study = ScalingStudy(app, cluster, node_counts=counts).run()
            out[name] = study.speedups()
        self._results_memo[key] = out
        return out

    def headline_hpl(self, n_nodes: int = 96) -> dict[str, float]:
        """The 97 GFLOPS / 51% / 120 MFLOPS/W result (Open-MX deployed,
        Section 4.1)."""
        key = ("headline_hpl", n_nodes)
        if key in self._results_memo:
            return self._results_memo[key]
        cluster = tibidabo(n_nodes, open_mx=True)
        hpl = HPL()
        run = hpl.simulate(cluster, n_nodes)
        power = ClusterPowerModel()
        result = {
            "n_nodes": float(n_nodes),
            "gflops": run.gflops,
            "efficiency": hpl.efficiency(cluster, run),
            "mflops_per_watt": power.mflops_per_watt(cluster, run.gflops),
            "total_power_w": power.total_power_watts(cluster),
        }
        self._results_memo[key] = result
        return result

    def figure7(self) -> dict[str, dict[str, Any]]:
        """Interconnect latency and bandwidth curves."""
        out: dict[str, dict[str, Any]] = {}
        for label, proto, attach, core, freq in FIG7_CONFIGS:
            stack = ProtocolStack(
                proto, attach, core_name=core, freq_ghz=freq
            )
            out[label] = {
                "latency_us": latency_curve(stack),
                "bandwidth_mbs": bandwidth_curve(stack),
                "small_message_latency_us": stack.small_message_latency_us(),
            }
        return out

    def table4(self) -> dict[str, dict[str, float]]:
        return metrics.bytes_per_flop_table(list(self.platforms.values()))

    def latency_penalties(self) -> dict[str, float]:
        """Section 4.1's execution-time penalty estimates."""
        return {
            "snb_100us": metrics.latency_penalty(100.0, 1.0),
            "snb_65us": metrics.latency_penalty(65.0, 1.0),
            "arndale_100us": metrics.latency_penalty(100.0, 0.5),
            "arndale_65us": metrics.latency_penalty(65.0, 0.5),
        }

    # ------------------------------------------------------------------
    def armv8_outlook(self) -> dict[str, float]:
        """Section 3.1.2 / Figure 2b projection: an ARMv8 A15-class core
        doubles FP64 per cycle."""
        a15 = get_platform("Exynos5250")
        v8 = armv8_projection()
        return {
            "exynos_peak_gflops": a15.peak_gflops(),
            "armv8_peak_gflops": v8.peak_gflops(),
            "per_core_per_ghz_ratio": (
                v8.soc.core.fp64_flops_per_cycle
                / a15.soc.core.fp64_flops_per_cycle
            ),
        }

    def run_all(self, quick: bool = False) -> dict[str, Any]:
        """Execute the whole campaign serially; ``quick`` trims Figure 6.

        This is the oracle the campaign runner
        (:func:`repro.parallel.runner.run_campaign`, what ``repro all``
        calls) must match byte for byte.
        """
        counts = FIG6_QUICK_COUNTS if quick else FIG6_FULL_COUNTS
        return {
            "figure1": self.figure1(),
            "figure2a": self.figure2a(),
            "figure2b": self.figure2b(),
            "table1": self.table1(),
            "table2": self.table2(),
            "figure3": self.figure3(),
            "figure4": self.figure4(),
            "figure5": self.figure5(),
            "figure6": self.figure6(counts),
            "figure7": self.figure7(),
            "table4": self.table4(),
            "headline_hpl": self.headline_hpl(),
            "latency_penalties": self.latency_penalties(),
            "armv8_outlook": self.armv8_outlook(),
        }
