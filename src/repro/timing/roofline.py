"""Classical roofline model (Williams et al.) used by the executor.

Attainable performance is ``min(peak_gflops, bandwidth * intensity)``;
the ridge point is the intensity where the two roofs meet.  The module is
also exposed publicly because the examples plot platform rooflines to
explain *why* a kernel lands where it does.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Roofline:
    """A two-roof performance model.

    :param peak_gflops: the compute roof (GFLOP/s).
    :param bandwidth_gbs: the memory roof slope (GB/s).
    """

    peak_gflops: float
    bandwidth_gbs: float

    def __post_init__(self) -> None:
        if self.peak_gflops <= 0 or self.bandwidth_gbs <= 0:
            raise ValueError("roofs must be positive")

    @property
    def ridge_intensity(self) -> float:
        """FLOPs/byte at which the kernel stops being memory-bound."""
        return self.peak_gflops / self.bandwidth_gbs

    def attainable_gflops(self, intensity: float) -> float:
        """Attainable GFLOP/s at the given arithmetic intensity."""
        if intensity < 0:
            raise ValueError("intensity must be non-negative")
        return min(self.peak_gflops, self.bandwidth_gbs * intensity)

    def is_memory_bound(self, intensity: float) -> bool:
        return intensity < self.ridge_intensity

    def time_seconds(self, flops: float, dram_bytes: float) -> float:
        """Execution time of a phase under this roofline (max of the
        compute and the memory time — perfect overlap)."""
        if flops < 0 or dram_bytes < 0:
            raise ValueError("work must be non-negative")
        t_comp = flops / (self.peak_gflops * 1e9)
        t_mem = dram_bytes / (self.bandwidth_gbs * 1e9)
        return max(t_comp, t_mem)

