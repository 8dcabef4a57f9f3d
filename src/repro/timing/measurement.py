"""Power/energy measurement model — the Yokogawa WT230 procedure.

The paper (Section 3.1) measures wall power with a Yokogawa WT230 power
meter bridged between socket and device: 10 Hz sampling, 0.1% precision,
integrating **only over the parallel region** of the application
(initialisation/finalisation excluded, because NFS vs local disk would
bias them).  :class:`PowerMeter` reproduces that procedure over a
simulated power trace so that sampling error and short-run quantisation
behave like the real instrument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.arch.soc import Platform
from repro.kernels.base import Kernel
from repro.timing.executor import SimulatedExecutor, SimulatedRun


@dataclass(frozen=True)
class EnergyMeasurement:
    """One metered run: energy over the measured (parallel) region."""

    platform: str
    kernel: str
    duration_s: float
    energy_j: float
    mean_power_w: float
    n_samples: int

    def energy_per_iteration(self, iterations: int) -> float:
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        return self.energy_j / iterations

    def efficiency_mflops_per_watt(self, total_flops: float) -> float:
        """The Green500 metric for this run."""
        if self.energy_j <= 0:
            raise ValueError("no energy recorded")
        return (total_flops / self.duration_s) / 1e6 / self.mean_power_w


class PowerMeter:
    """Model of the Yokogawa WT230 digital power meter.

    :param sample_hz: sampling frequency (10 Hz for the WT230).
    :param precision: relative 1-sigma measurement error (0.1%).
    :param seed: RNG seed for reproducible noise.
    """

    def __init__(
        self, sample_hz: float = 10.0, precision: float = 0.001, seed: int = 0
    ) -> None:
        if sample_hz <= 0:
            raise ValueError("sample rate must be positive")
        if precision < 0:
            raise ValueError("precision must be non-negative")
        self.sample_hz = sample_hz
        self.precision = precision
        self._rng = np.random.default_rng(seed)

    def _samples(self, duration_s: float) -> int:
        """Readings the meter takes over ``duration_s``; ``ValueError``
        unless the duration is positive and their count finite."""
        samples = duration_s * self.sample_hz
        if not (duration_s > 0 and samples < math.inf):
            raise ValueError("duration must be positive and finite")
        return max(1, int(round(samples)))

    def sample_trace(self, power_watts: float, duration_s: float) -> np.ndarray:
        """Sampled power readings over a constant-power interval."""
        n = self._samples(duration_s)
        noise = self._rng.normal(0.0, self.precision, n)
        return power_watts * (1.0 + noise)

    def integrate(self, power_watts: float, duration_s: float) -> tuple[float, int]:
        """Energy (J) over the interval as the meter reports it, plus the
        sample count (trapezoidal over the sampled trace)."""
        trace = self.sample_trace(power_watts, duration_s)
        return float(trace.mean() * duration_s), trace.shape[0]

    def integrate_batch(
        self,
        powers_watts: "list[float]",
        durations_s: "list[float]",
    ) -> list[tuple[float, int]]:
        """:meth:`integrate` over a batch of intervals in one RNG draw.

        The meter's seeded stream is preserved exactly: a Generator's
        batched normal draw produces the same variates as the sequential
        per-interval draws it replaces, so splitting one
        ``sum(n_samples)``-long draw at the per-interval sample counts
        reproduces every scalar trace bit-for-bit (enforced by
        tests/timing/test_sweep_equivalence.py).  Caller-visible RNG
        state after the call is identical to the scalar loop's.
        """
        if len(powers_watts) != len(durations_s):
            raise ValueError("need one power per duration")
        counts = [self._samples(d) for d in durations_s]
        noise = self._rng.normal(0.0, self.precision, sum(counts))
        # Every sample scaled in one elementwise pass (the same IEEE
        # products as sample_trace), then trace.mean() per interval:
        # numpy's sum over its n readings, divided by n.
        traces = np.repeat(powers_watts, counts) * (1.0 + noise)
        out: list[tuple[float, int]] = []
        offset = 0
        for duration, n in zip(durations_s, counts):
            total = np.add.reduce(traces[offset:offset + n])
            offset += n
            out.append((float(total / n * duration), n))
        return out


def measure_kernel(
    platform: Platform,
    kernel: Kernel,
    freq_ghz: float,
    cores: int = 1,
    iterations: int = 1,
    meter: PowerMeter | None = None,
    executor: SimulatedExecutor | None = None,
) -> tuple[SimulatedRun, EnergyMeasurement]:
    """Run the full measurement procedure for one kernel configuration.

    Returns the simulated run and the metered energy over ``iterations``
    iterations of the parallel region.
    """
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    meter = meter or PowerMeter()
    executor = executor or SimulatedExecutor(platform)
    run = executor.time_kernel(kernel, freq_ghz, cores=cores)
    power = platform.soc.power.platform_power(
        freq_ghz,
        active_cores=cores,
        total_cores=platform.soc.n_cores,
        mem_bw_utilisation=run.memory_bw_utilisation,
    )
    duration = run.time_s * iterations
    energy, n_samples = meter.integrate(power, duration)
    measurement = EnergyMeasurement(
        platform=platform.name,
        kernel=kernel.tag,
        duration_s=duration,
        energy_j=energy,
        mean_power_w=energy / duration,
        n_samples=n_samples,
    )
    return run, measurement

