"""Window-averaged power sampling (NVML / AMD-SMI semantics).

Board power counters do not expose instantaneous power: each reading is
an average over the counter's update window. That windowing is *load-
bearing* for the paper's observations — e.g. a short FP16 burst inside
a communication-bound iteration never shows up in a 100 ms NVML sample,
which is why FP16 "reduces peak power" for small models (Fig. 10) even
though instantaneous draw is briefly higher.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import le
from typing import List, Sequence

from repro.errors import ConfigurationError
from repro.hw.gpu import Vendor
from repro.sim.result import PowerSegment
from repro.units import MS


@dataclass(frozen=True)
class PowerSample:
    """One sampled reading."""

    time_s: float
    power_w: float


@dataclass
class SampledTrace:
    """A sampled power time-series for one GPU."""

    samples: List[PowerSample]
    interval_s: float

    @property
    def peak_w(self) -> float:
        """Maximum sampled power (0 for an empty trace)."""
        if not self.samples:
            return 0.0
        return max(s.power_w for s in self.samples)

    @property
    def average_w(self) -> float:
        """Mean sampled power (0 for an empty trace)."""
        if not self.samples:
            return 0.0
        return sum(s.power_w for s in self.samples) / len(self.samples)


class PowerSampler:
    """Samples a piecewise-constant power trace with window averaging."""

    def __init__(self, interval_s: float, window_s: float = None):  # type: ignore[assignment]
        if interval_s <= 0:
            raise ConfigurationError("sampling interval must be positive")
        if window_s is None:
            window_s = interval_s
        if window_s <= 0:
            raise ConfigurationError("sampling window must be positive")
        self.interval_s = interval_s
        self.window_s = window_s

    def sample(self, segments: Sequence[PowerSegment]) -> SampledTrace:
        """Produce window-averaged samples over the segment timeline.

        Engine traces arrive ordered by start time, which admits a
        two-pointer sweep: as the sampling window advances, segments
        that ended before it are retired for good and the scan of each
        window stops at the first segment starting after it. The
        energy sum visits exactly the overlapping segments in list
        order — the same terms the full scan would add, in the same
        order, so the result is bit-for-bit identical. Unordered
        segment lists (hand-built in tests) fall back to the full
        scan per window.
        """
        samples: List[PowerSample] = []
        if not segments:
            return SampledTrace(samples=samples, interval_s=self.interval_s)
        n = len(segments)
        # Tuple-index the namedtuple fields once up front: the
        # orderedness scan and the window sweeps below touch every
        # segment, and C-level map/all over prefetched columns beats
        # a generator re-reading attributes per element. Field order
        # is pinned by PowerSegment: (gpu, start_s, end_s, power_w,
        # ...).
        starts = [seg[1] for seg in segments]
        ends = [seg[2] for seg in segments]
        powers = [seg[3] for seg in segments]
        ordered = all(map(le, starts, islice(starts, 1, None)))
        end_time = max(ends)
        first = 0
        t = self.interval_s
        while t <= end_time + 1e-12:
            window_start = t - self.window_s
            if window_start < 0.0:
                window_start = 0.0
            energy = 0.0
            if ordered:
                # Retire segments that can never contribute again (the
                # window only moves right).
                while first < n and ends[first] <= window_start:
                    first += 1
                for i in range(first, n):
                    lo = starts[i]
                    if lo >= t:
                        break
                    if lo < window_start:
                        lo = window_start
                    hi = ends[i]
                    if hi > t:
                        hi = t
                    if hi > lo:
                        energy += powers[i] * (hi - lo)
            else:
                for i in range(n):
                    lo = starts[i]
                    if lo < window_start:
                        lo = window_start
                    hi = ends[i]
                    if hi > t:
                        hi = t
                    if hi > lo:
                        energy += powers[i] * (hi - lo)
            width = t - window_start
            samples.append(PowerSample(time_s=t, power_w=energy / width))
            t += self.interval_s
        return SampledTrace(samples=samples, interval_s=self.interval_s)


def nvml_sampler() -> PowerSampler:
    """NVML on NVIDIA: ~100 ms averaged readings (paper section IV-D)."""
    return PowerSampler(interval_s=100.0 * MS)


def amd_smi_sampler() -> PowerSampler:
    """AMD-SMI default: 20 ms sampling (paper section IV-D)."""
    return PowerSampler(interval_s=20.0 * MS)


def amd_smi_fast_sampler() -> PowerSampler:
    """ROCm-SMI fine-grained mode: ~1 ms (used for Fig. 7's time trace)."""
    return PowerSampler(interval_s=1.0 * MS)


def sampler_for(vendor: Vendor, fine_grained: bool = False) -> PowerSampler:
    """The sampler the paper used for a given vendor."""
    if vendor is Vendor.NVIDIA:
        return nvml_sampler()
    return amd_smi_fast_sampler() if fine_grained else amd_smi_sampler()
