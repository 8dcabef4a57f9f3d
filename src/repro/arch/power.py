"""Platform power model.

The paper measures *wall* power of whole developer boards/laptop with a
Yokogawa WT230 and observes (Section 3.1.2) that "the SoC is not the main
power sink in the system": increasing CPU frequency increases core power
at least linearly yet improves whole-platform energy efficiency, because
board components (VRMs, DRAM, multimedia circuitry, NICs, the laptop
panel's electronics, PSU losses) dominate.

We therefore model platform power as::

    P(f, n_active, bw_util) = P_board
                            + P_soc_static
                            + n_active * P_core_nominal * (f/f_nom) * (V(f)/V_nom)^2
                            + P_mem_max * bw_util

with a linear voltage/frequency relation between the DVFS table's extreme
operating points.  The per-platform constants are calibrated in
:mod:`repro.arch.catalog` against the paper's published energy-per-
iteration numbers (23.93 J Tegra 2, 19.62 J Tegra 3, 16.95 J Exynos,
28.57 J Core i7, all at 1 GHz single-core).
"""

from __future__ import annotations

from dataclasses import dataclass

@dataclass(frozen=True)
class PowerModel:
    """Wall-power model for one platform.

    :param board_watts: constant board/platform overhead (PSU losses,
        VRMs, NIC, multimedia circuitry; screen-off laptop base for i7).
    :param soc_static_watts: SoC leakage + always-on uncore.
    :param core_active_watts: dynamic power of ONE core running flat out
        at the *nominal* frequency/voltage point.
    :param nominal_freq_ghz: frequency at which ``core_active_watts`` is
        specified (1.0 GHz for every platform, matching the paper's main
        comparison point).
    :param vmin, vmax: supply voltage at the lowest/highest DVFS point.
    :param fmin_ghz, fmax_ghz: the DVFS frequency range.
    :param mem_dynamic_watts: extra power at 100% memory-bandwidth
        utilisation (DRAM + controller dynamic power).
    :param idle_core_fraction: fraction of ``core_active_watts`` burned by
        an idle (clock-gated) core.
    """

    board_watts: float
    soc_static_watts: float
    core_active_watts: float
    nominal_freq_ghz: float
    vmin: float
    vmax: float
    fmin_ghz: float
    fmax_ghz: float
    mem_dynamic_watts: float = 0.5
    idle_core_fraction: float = 0.12

    def __post_init__(self) -> None:
        if self.fmax_ghz <= 0 or self.fmin_ghz <= 0:
            raise ValueError("frequencies must be positive")
        if self.fmax_ghz < self.fmin_ghz:
            raise ValueError("fmax must be >= fmin")
        if self.vmax < self.vmin:
            raise ValueError("vmax must be >= vmin")
        for name in ("board_watts", "soc_static_watts", "core_active_watts"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def voltage(self, freq_ghz: float) -> float:
        """Supply voltage at ``freq_ghz`` (linear V/f interpolation,
        clamped to the table's range)."""
        if self.fmax_ghz == self.fmin_ghz:
            return self.vmax
        f = min(max(freq_ghz, self.fmin_ghz), self.fmax_ghz)
        t = (f - self.fmin_ghz) / (self.fmax_ghz - self.fmin_ghz)
        return self.vmin + t * (self.vmax - self.vmin)

    def core_power(self, freq_ghz: float) -> float:
        """Dynamic power of one active core at ``freq_ghz`` (f·V² CMOS
        scaling around the nominal point)."""
        if freq_ghz <= 0:
            raise ValueError("frequency must be positive")
        v = self.voltage(freq_ghz)
        v_nom = self.voltage(self.nominal_freq_ghz)
        return (
            self.core_active_watts
            * (freq_ghz / self.nominal_freq_ghz)
            * (v / v_nom) ** 2
        )

    def platform_power(
        self,
        freq_ghz: float,
        active_cores: int,
        total_cores: int,
        mem_bw_utilisation: float = 0.3,
    ) -> float:
        """Total wall power with ``active_cores`` busy out of
        ``total_cores`` at ``freq_ghz``; ``mem_bw_utilisation`` in [0, 1]."""
        if not (0.0 <= mem_bw_utilisation <= 1.0):
            raise ValueError("mem_bw_utilisation must be in [0, 1]")
        return (
            self.frequency_watts(freq_ghz, active_cores, total_cores)
            + self.mem_dynamic_watts * mem_bw_utilisation
        )

    def frequency_watts(
        self, freq_ghz: float, active_cores: int, total_cores: int
    ) -> float:
        """Everything in :meth:`platform_power` but the memory term,
        summed in the same order: ``((board + static) + active*cp) +
        (idle*frac)*cp``.  A caller pricing many utilisations at one
        operating point adds ``mem_dynamic_watts * u`` to it per entry,
        bit for bit :meth:`platform_power`."""
        if not (0 <= active_cores <= total_cores):
            raise ValueError("active_cores must be within [0, total_cores]")
        idle_cores = total_cores - active_cores
        core = self.core_power(freq_ghz)
        return (
            self.board_watts
            + self.soc_static_watts
            + active_cores * core
            + idle_cores * self.idle_core_fraction * core
        )

    def idle_power(self, freq_ghz: float, total_cores: int) -> float:
        """Wall power with every core idle."""
        return self.platform_power(
            freq_ghz, 0, total_cores, mem_bw_utilisation=0.0
        )
