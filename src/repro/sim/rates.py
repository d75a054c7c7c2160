"""Roofline rate computation for compute kernels.

The module-level functions are the reference formulas; the engine hot
path goes through :class:`RateModel`, which precomputes the per-kernel
invariants (datapath peak x efficiency, arithmetic intensity) once and
memoizes the clock-dependent free-running utilisation the power model
keeps asking for. The class performs the *same arithmetic in the same
association order* as the functions, so the two are bit-for-bit
interchangeable (a property test pins this).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import SimulationError
from repro.hw.gpu import GpuSpec
from repro.workloads.kernels import KernelSpec


def compute_rate(
    kernel: KernelSpec,
    gpu: GpuSpec,
    sm_fraction: float,
    hbm_bytes_per_s: float,
    clock_frac: float,
) -> float:
    """Execution rate of a kernel in FLOP/s under the given resources.

    The classic roofline: the kernel runs at the lesser of its compute
    ceiling (peak of its datapath, scaled by available SMs, clock and
    kernel efficiency) and its bandwidth ceiling (arithmetic intensity
    times available HBM bandwidth).
    """
    if sm_fraction < 0 or hbm_bytes_per_s < 0 or clock_frac <= 0:
        raise SimulationError(
            f"invalid resources for {kernel.name}: "
            f"sm={sm_fraction}, bw={hbm_bytes_per_s}, f={clock_frac}"
        )
    peak = gpu.peak(kernel.path)
    flops_ceiling = peak * kernel.efficiency * sm_fraction * clock_frac
    ai = kernel.arithmetic_intensity
    if ai == float("inf"):
        rate = flops_ceiling
    else:
        rate = min(flops_ceiling, ai * hbm_bytes_per_s)
    if rate <= 0:
        # Starved of both SMs and bandwidth; progress at a trickle so the
        # simulation still terminates (real kernels never fully stall).
        rate = max(peak * kernel.efficiency * 1e-4, 1.0)
    return rate


def isolated_duration(kernel: KernelSpec, gpu: GpuSpec) -> float:
    """Duration with the whole GPU at full clock (no contention)."""
    rate = compute_rate(
        kernel,
        gpu,
        sm_fraction=1.0,
        hbm_bytes_per_s=gpu.memory.effective_bandwidth,
        clock_frac=1.0,
    )
    return kernel.flops / rate


def sm_utilization(
    kernel: KernelSpec,
    gpu: GpuSpec,
    rate_flops_per_s: float,
    sm_fraction: float,
    clock_frac: float,
) -> float:
    """Fraction of the datapath's full-tilt issue rate actually used.

    Memory-bound kernels occupy SMs but stall on loads, drawing less
    power than their occupancy suggests; this utilisation drives the SM
    term of the power model.
    """
    peak = gpu.peak(kernel.path) * kernel.efficiency * clock_frac
    if peak <= 0:
        return 0.0
    util = rate_flops_per_s / peak
    return min(util, sm_fraction if sm_fraction > 0 else 1.0, 1.0)


class RateModel:
    """Roofline calculator for one GPU with precomputed kernel tables.

    Hoists the quantities that never change during a simulation — the
    datapath peak scaled by kernel efficiency, the arithmetic intensity,
    the isolated duration — into per-kernel memo tables, and caches the
    free-running (uncontended) SM utilisation per (kernel, clock) pair
    the stall-power model evaluates on every power update. All results
    are bit-for-bit equal to the module-level functions.

    The per-kernel tables are keyed on :attr:`KernelSpec.physics`, not
    on the spec: none of their values reads the name, so the layers of
    a model (``L0.qkv``, ``L1.qkv``, ...) share one entry.
    """

    #: Bound on each memo table. The instance is shared process-wide
    #: per GPU spec: DVFS walks the (kernel, clock) table through many
    #: distinct clocks over a long run, and a long-lived process meets
    #: ever more kernel physics, so no table may grow without limit.
    #: A full table is cleared wholesale (its values are pure in their
    #: keys, so a clear only costs recomputation).
    _MAX_ENTRIES = 4096

    def __init__(self, gpu: GpuSpec):
        self.gpu = gpu
        self._peak_eff: Dict[tuple, float] = {}
        self._iso: Dict[tuple, float] = {}
        self._free_util: Dict[Tuple[KernelSpec, float], float] = {}
        self._rows: Dict[tuple, Tuple[float, float, float]] = {}

    def _peak_eff_for(self, kernel: KernelSpec) -> float:
        key = kernel.physics
        value = self._peak_eff.get(key)
        if value is None:
            if len(self._peak_eff) >= self._MAX_ENTRIES:
                self._peak_eff.clear()
            value = self.gpu.peak(kernel.path) * kernel.efficiency
            self._peak_eff[key] = value
        return value

    @staticmethod
    def rate_from_params(
        peak_eff: float,
        ai: float,
        sm_fraction: float,
        hbm_bytes_per_s: float,
        clock_frac: float,
    ) -> float:
        """:meth:`compute_rate` from pre-resolved kernel parameters.

        Performs exactly the same arithmetic in the same association
        order, so the result is bit-for-bit equal (a property test
        pins this against the module-level function).
        """
        flops_ceiling = peak_eff * sm_fraction * clock_frac
        if ai == float("inf"):
            rate = flops_ceiling
        else:
            rate = min(flops_ceiling, ai * hbm_bytes_per_s)
        if rate <= 0:
            rate = max(peak_eff * 1e-4, 1.0)
        return rate

    @staticmethod
    def sm_utilization_from_params(
        peak_eff: float,
        rate_flops_per_s: float,
        sm_fraction: float,
        clock_frac: float,
    ) -> float:
        """:meth:`sm_utilization` from a pre-resolved peak."""
        peak = peak_eff * clock_frac
        if peak <= 0:
            return 0.0
        util = rate_flops_per_s / peak
        return min(util, sm_fraction if sm_fraction > 0 else 1.0, 1.0)

    def compute_rate(
        self,
        kernel: KernelSpec,
        sm_fraction: float,
        hbm_bytes_per_s: float,
        clock_frac: float,
    ) -> float:
        """Identical to :func:`compute_rate` with the peak memoized."""
        if sm_fraction < 0 or hbm_bytes_per_s < 0 or clock_frac <= 0:
            raise SimulationError(
                f"invalid resources for {kernel.name}: "
                f"sm={sm_fraction}, bw={hbm_bytes_per_s}, f={clock_frac}"
            )
        peak_eff = self._peak_eff_for(kernel)
        flops_ceiling = peak_eff * sm_fraction * clock_frac
        ai = kernel.arithmetic_intensity
        if ai == float("inf"):
            rate = flops_ceiling
        else:
            rate = min(flops_ceiling, ai * hbm_bytes_per_s)
        if rate <= 0:
            rate = max(peak_eff * 1e-4, 1.0)
        return rate

    def isolated_duration(self, kernel: KernelSpec) -> float:
        """Memoized :func:`isolated_duration`."""
        key = kernel.physics
        value = self._iso.get(key)
        if value is None:
            if len(self._iso) >= self._MAX_ENTRIES:
                self._iso.clear()
            rate = self.compute_rate(
                kernel,
                sm_fraction=1.0,
                hbm_bytes_per_s=self.gpu.memory.effective_bandwidth,
                clock_frac=1.0,
            )
            value = kernel.flops / rate
            self._iso[key] = value
        return value

    def sm_utilization(
        self,
        kernel: KernelSpec,
        rate_flops_per_s: float,
        sm_fraction: float,
        clock_frac: float,
    ) -> float:
        """Identical to :func:`sm_utilization` with the peak memoized."""
        peak = self._peak_eff_for(kernel) * clock_frac
        if peak <= 0:
            return 0.0
        util = rate_flops_per_s / peak
        return min(util, sm_fraction if sm_fraction > 0 else 1.0, 1.0)

    def kernel_row(self, kernel: KernelSpec) -> Tuple[float, float, float]:
        """``(peak_eff, ai, isolated_s)`` in one memo probe.

        The prepared-simulation table build needs all three per-kernel
        invariants at once; resolving them through the individual memos
        costs two probes per kernel per plan. This combined row is
        assembled from those same memos on first sight of a kernel's
        physics (so every float is identical to the piecewise path) and
        then answers in a single lookup.
        """
        key = kernel.physics
        row = self._rows.get(key)
        if row is None:
            if len(self._rows) >= self._MAX_ENTRIES:
                self._rows.clear()
            row = (
                self._peak_eff_for(kernel),
                kernel.arithmetic_intensity,
                self.isolated_duration(kernel),
            )
            self._rows[key] = row
        return row

    def free_utilization(self, kernel: KernelSpec, clock_frac: float) -> float:
        """Uncontended SM utilisation at a given clock, memoized.

        This is the ``sm_utilization`` of the rate the kernel would
        sustain with the whole GPU to itself — the quantity the
        stall-power model compares against on every power update.

        The reference engine reads this memo on every power update.
        The incremental engine's fused pass computes the same
        arithmetic inline and calls this only for a kernel whose
        ``peak_eff * clock`` is not positive; it made no call across
        the Fig. 9 sweep at ``runs=5`` and the quick grid (seed 0).
        """
        key = (kernel, clock_frac)
        value = self._free_util.get(key)
        if value is None:
            if len(self._free_util) >= self._MAX_ENTRIES:
                self._free_util.clear()
            free_rate = self.compute_rate(
                kernel,
                sm_fraction=1.0,
                hbm_bytes_per_s=self.gpu.memory.effective_bandwidth,
                clock_frac=clock_frac,
            )
            value = self.sm_utilization(kernel, free_rate, 1.0, clock_frac)
            self._free_util[key] = value
        return value
