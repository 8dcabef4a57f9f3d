"""SoC and platform aggregates.

A :class:`SoC` combines a core model, core count, cache hierarchy
configuration, memory system, power model and DVFS table — the "Table 1
row" of the paper.  A :class:`Platform` wraps the SoC in its developer
board/laptop context (DRAM size/type, Ethernet interfaces, NIC
attachment), since the paper evaluates whole developer kits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.cache import CacheConfig, CacheHierarchy
from repro.arch.core_model import CoreModel
from repro.arch.dram import MemorySystem
from repro.arch.dvfs import DVFSTable
from repro.arch.power import PowerModel


@dataclass(frozen=True)
class GPUInfo:
    """Integrated GPU descriptor.

    The Tegra 2/3 ULP GeForce is graphics-only; the Exynos Mali-T604
    supports OpenCL but had no optimised driver at the time, so the paper
    excludes every GPU from the evaluation (Section 3).  We carry the
    descriptor so that exclusion is an explicit, testable decision.
    """

    name: str
    programmable: bool
    api: str | None = None
    usable_for_compute: bool = False


@dataclass(frozen=True)
class BoardInfo:
    """Developer kit / laptop context around the SoC."""

    name: str
    dram_bytes: int
    dram_type: str
    ethernet_interfaces: tuple[str, ...]
    nic_attachment: str  # "pcie", "usb3", "onboard"
    has_heatsink: bool = False
    root_filesystem: str = "nfs"  # dev kits boot over NFS; laptop has disk


@dataclass(frozen=True)
class SoC:
    """A system-on-chip: cores + caches + memory controller + power.

    ``l2_bw_bytes_per_cycle`` is the per-core sustained bandwidth into the
    last private/shared on-chip cache level, in bytes per core cycle.  For
    the cache-resident working sets of the micro-kernel suite this — not
    DRAM — is the memory roof, which is why the paper observes performance
    scaling linearly with CPU frequency (Section 3.1.1).
    """

    name: str
    core: CoreModel
    n_cores: int
    cache_levels: tuple[CacheConfig, ...]
    memory: MemorySystem
    power: PowerModel
    dvfs: DVFSTable
    l2_bw_bytes_per_cycle: float = 4.0
    gpu: GPUInfo | None = None
    threads_per_core: int = 1

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise ValueError("n_cores must be positive")
        if self.threads_per_core <= 0:
            raise ValueError("threads_per_core must be positive")

    @property
    def n_threads(self) -> int:
        return self.n_cores * self.threads_per_core

    @property
    def max_freq_ghz(self) -> float:
        return self.dvfs.fmax

    def peak_gflops(self, freq_ghz: float | None = None) -> float:
        """Peak FP64 GFLOPS of the whole SoC (all cores, no GPU)."""
        f = self.max_freq_ghz if freq_ghz is None else freq_ghz
        return self.n_cores * self.core.peak_gflops(f)

    def build_cache_hierarchy(
        self, freq_ghz: float | None = None
    ) -> CacheHierarchy:
        """Instantiate a fresh functional cache hierarchy for this SoC."""
        f = self.max_freq_ghz if freq_ghz is None else freq_ghz
        return CacheHierarchy(
            self.cache_levels, self.memory.dram_latency_cycles(f)
        )

    def last_level_cache_bytes(self) -> int:
        return self.cache_levels[-1].size_bytes

    @property
    def llc_shared(self) -> bool:
        """Whether the last cache level is shared between cores."""
        return self.cache_levels[-1].shared

    @property
    def l2_shared(self) -> bool:
        """Whether the L2 (the per-core bandwidth conduit) is shared.

        The Tegra/Exynos SoCs share one L2 between all cores, so their
        aggregate on-chip bandwidth saturates with thread count; Sandy
        Bridge has private per-core L2s and scales linearly."""
        level = self.cache_levels[1] if len(self.cache_levels) > 1 else self.cache_levels[0]
        return level.shared

    def l2_bandwidth_gbs(self, freq_ghz: float, cores: int = 1) -> float:
        """Aggregate on-chip cache bandwidth at ``freq_ghz`` for ``cores``
        active cores (GB/s)."""
        if freq_ghz <= 0:
            raise ValueError("frequency must be positive")
        if not (1 <= cores <= self.n_cores):
            raise ValueError("cores out of range")
        scale = self.l2_core_scale(cores)
        return self.l2_bw_bytes_per_cycle * freq_ghz * scale

    def l2_core_scale(self, cores: int) -> float:
        """How the on-chip bandwidth scales with ``cores`` active cores:
        a shared LLC saturates; private per-core levels (Sandy Bridge)
        scale linearly.  The scaling constants live in
        :mod:`repro.timing.calibration`."""
        from repro.timing import calibration

        if cores == 1:
            return 1.0
        if self.l2_shared:
            return min(
                1.0 + calibration.SHARED_L2_CORE_SCALING * (cores - 1),
                calibration.SHARED_L2_SCALING_CAP,
            )
        return float(cores)


@dataclass(frozen=True)
class Platform:
    """A complete evaluated platform: SoC + developer kit context."""

    soc: SoC
    board: BoardInfo
    #: Free-form calibration notes (which paper numbers anchored it).
    calibration_notes: str = ""
    #: Price in USD where the paper quotes one (Section 1 footnote 5).
    unit_price_usd: float | None = None
    #: Hardware network-protocol offload engine (TI KeyStone II class,
    #: Section 4.1/6.3); absent from every mobile SoC of the era.
    protocol_offload: bool = False

    @property
    def name(self) -> str:
        return self.soc.name

    def peak_gflops(self, freq_ghz: float | None = None) -> float:
        return self.soc.peak_gflops(freq_ghz)

    def describe(self) -> dict[str, object]:
        """Table 1-style summary row."""
        soc = self.soc
        return {
            "SoC": soc.name,
            "Architecture": soc.core.name,
            "Max. frequency (GHz)": soc.max_freq_ghz,
            "Number of cores": soc.n_cores,
            "Number of threads": soc.n_threads,
            "FP-64 GFLOPS": round(soc.peak_gflops(), 1),
            "L1 (I/D)": f"{soc.cache_levels[0].size_bytes // 1024}K private",
            "L2": _fmt_cache(soc.cache_levels[1])
            if len(soc.cache_levels) > 1
            else "-",
            "L3": _fmt_cache(soc.cache_levels[2])
            if len(soc.cache_levels) > 2
            else "-",
            "Memory channels": soc.memory.channels,
            "Channel width (bits)": soc.memory.width_bits,
            "Memory freq (MHz)": soc.memory.freq_mhz,
            "Peak bandwidth (GB/s)": soc.memory.peak_bandwidth_gbs,
            "Developer kit": self.board.name,
            "DRAM": f"{self.board.dram_bytes // 2**30} GB {self.board.dram_type}",
            "Ethernet": ", ".join(self.board.ethernet_interfaces),
        }


def _fmt_cache(cfg: CacheConfig) -> str:
    size = cfg.size_bytes
    label = (
        f"{size // 2**20}M" if size >= 2**20 else f"{size // 2**10}K"
    )
    return f"{label} {'shared' if cfg.shared else 'private'}"
