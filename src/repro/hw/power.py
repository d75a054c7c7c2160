"""Component-level GPU power model.

Instantaneous board power is decomposed into four additive terms::

    P = P_idle
      + P_sm(datapath utilisation) * clock_frac ** dvfs_exponent
      + P_hbm(bandwidth utilisation)
      + P_link(interconnect utilisation)

The coefficients are expressed as fractions of TDP so a single set of
defaults transfers across GPUs; vendor registries override them where
datasheets differ. The sum of the maximum terms deliberately exceeds
1.0 x TDP: the paper observes sampled peaks up to 1.4 x TDP when compute
and communication overlap (Fig. 6 / Fig. 7), which is possible because
board TDP is enforced over a control window, not instantaneously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Tuple

from repro.errors import ConfigurationError
from repro.hw.datapath import Datapath

#: Exponent relating SM clock scale to dynamic power (f * V(f)^2 with a
#: roughly linear V-f curve gives ~f^2.4 over the DVFS range).
DVFS_POWER_EXPONENT = 2.4


def _default_sm_max_frac() -> Mapping[Datapath, float]:
    # A full-tilt FP32 vector (CUDA-core / SIMD) GEMM loop draws close
    # to TDP on these parts — the paper measures 1.2 x TDP peaks for
    # FP32 GPT-3 XL on the H100 — while tensor/matrix pipes at full
    # tilt draw more still. What makes FP16/TF32 runs *sample* lower
    # power on small models is kernel shortness and counter windowing,
    # not a lower silicon ceiling.
    return {Datapath.VECTOR: 0.78, Datapath.TENSOR: 0.85}


@dataclass(frozen=True)
class GpuPowerCoefficients:
    """Per-GPU power coefficients, as fractions of TDP.

    Attributes:
        idle_frac: board power with no kernels resident.
        sm_max_frac: full-utilisation SM power by datapath, one entry
            per :class:`Datapath` member. Tensor/matrix units draw more
            power than vector units at full tilt, which is what makes
            specialized datapaths raise peak power for large workloads
            (Fig. 11).
        hbm_max_frac: HBM subsystem at 100% bandwidth utilisation.
        link_max_frac: NVLink/Infinity-Fabric PHYs at 100% utilisation.
    """

    idle_frac: float = 0.10
    sm_max_frac: Mapping[Datapath, float] = field(
        default_factory=_default_sm_max_frac
    )
    hbm_max_frac: float = 0.30
    link_max_frac: float = 0.18

    def __post_init__(self) -> None:
        if not 0.0 <= self.idle_frac < 1.0:
            raise ConfigurationError("idle_frac must be in [0, 1)")
        for path, frac in self.sm_max_frac.items():
            if frac <= 0:
                raise ConfigurationError(
                    f"sm_max_frac[{path}] must be positive"
                )
        for path in Datapath:
            # Every board runs collectives (vector pipes) and may run
            # tensor kernels; the incremental engine reads both
            # coefficients up front.
            if path not in self.sm_max_frac:
                raise ConfigurationError(
                    f"no SM power coefficient for {path}"
                )
        if self.hbm_max_frac < 0 or self.link_max_frac < 0:
            raise ConfigurationError("power fractions must be >= 0")


@dataclass
class GpuActivity:
    """A snapshot of what a GPU is doing, for power evaluation.

    Utilisations are in [0, 1]. ``sm_util`` maps each datapath to the
    fraction of SMs busy executing work on that datapath (a GPU can run
    tensor GEMMs while NCCL's vector-code channels occupy other SMs).
    """

    sm_util: Mapping[Datapath, float] = field(default_factory=dict)
    hbm_frac: float = 0.0
    link_frac: float = 0.0
    clock_frac: float = 1.0

    def clamped(self) -> "GpuActivity":
        """Return a copy with all utilisations clamped to [0, 1]."""
        return GpuActivity(
            sm_util={k: min(max(v, 0.0), 1.0) for k, v in self.sm_util.items()},
            hbm_frac=min(max(self.hbm_frac, 0.0), 1.0),
            link_frac=min(max(self.link_frac, 0.0), 1.0),
            clock_frac=min(max(self.clock_frac, 0.0), 1.0),
        )


def gpu_power(tdp_w: float, coeffs: GpuPowerCoefficients, activity: GpuActivity) -> float:
    """Instantaneous board power in watts for the given activity."""
    act = activity.clamped()
    dynamic_sm = 0.0
    for path, util in act.sm_util.items():
        max_frac = coeffs.sm_max_frac.get(path)
        if max_frac is None:
            raise ConfigurationError(f"no SM power coefficient for {path}")
        dynamic_sm += max_frac * util
    clock_term = act.clock_frac ** DVFS_POWER_EXPONENT
    power_frac = (
        coeffs.idle_frac
        + dynamic_sm * clock_term
        + coeffs.hbm_max_frac * act.hbm_frac
        + coeffs.link_max_frac * act.link_frac
    )
    return tdp_w * power_frac


class PowerEvaluator:
    """Memoizing :func:`gpu_power` front-end for one board.

    The reference engine evaluates power through this on every state
    change; between governor ticks most GPUs cycle through a handful
    of recurring activity snapshots (same resident kernels, same
    collectives, same clock). Keying the cache on the full activity
    tuple — including the *insertion order* of the per-datapath
    utilisations, so two orderings of the same dict never share a
    float-summation order — keeps the memoized value bit-for-bit equal
    to a fresh evaluation. The incremental engine evaluates the same
    formula inline (under a power cap the clock moves on most updates,
    so the key rarely repeats) and shares only :meth:`clock_term`.
    """

    _MAX_ENTRIES = 4096

    def __init__(self, tdp_w: float, coeffs: GpuPowerCoefficients):
        self.tdp_w = tdp_w
        self.coeffs = coeffs
        self._cache: dict = {}
        #: ``clamp(clock) ** DVFS_POWER_EXPONENT`` per clock value —
        #: pow() is the single most expensive primitive in the power
        #: formula, and DVFS revisits the same clock fractions. Cleared
        #: in place, never rebound: the incremental engine's fused pass
        #: holds it and calls :meth:`clock_term` only on a miss.
        self._clock_pow: dict = {}

    def evaluate_parts(
        self,
        clock_frac: float,
        hbm_frac: float,
        link_frac: float,
        sm_items: Tuple[Tuple[Datapath, float], ...],
    ) -> float:
        """:func:`gpu_power` from pre-split activity components.

        The engine hot path calls this directly with the tuple it
        would otherwise wrap in a :class:`GpuActivity`; the arithmetic
        (including the per-component clamps and the ``sm_items``
        summation order) is exactly :func:`gpu_power`'s, so the
        memoized value is bit-for-bit equal to a fresh evaluation.
        """
        key = (clock_frac, hbm_frac, link_frac, sm_items)
        power = self._cache.get(key)
        if power is None:
            if len(self._cache) >= self._MAX_ENTRIES:
                self._cache.clear()
            coeffs = self.coeffs
            sm_max_frac = coeffs.sm_max_frac
            dynamic_sm = 0.0
            for path, util in sm_items:
                max_frac = sm_max_frac.get(path)
                if max_frac is None:
                    raise ConfigurationError(
                        f"no SM power coefficient for {path}"
                    )
                dynamic_sm += max_frac * min(max(util, 0.0), 1.0)
            clock_term = self.clock_term(clock_frac)
            power_frac = (
                coeffs.idle_frac
                + dynamic_sm * clock_term
                + coeffs.hbm_max_frac * min(max(hbm_frac, 0.0), 1.0)
                + coeffs.link_max_frac * min(max(link_frac, 0.0), 1.0)
            )
            power = self.tdp_w * power_frac
            self._cache[key] = power
        return power

    def clock_term(self, clock_frac: float) -> float:
        """``clamp(clock) ** DVFS_POWER_EXPONENT``, memoized.

        pow() is the single most expensive primitive in the power
        formula and DVFS revisits the same clock fractions.
        """
        term = self._clock_pow.get(clock_frac)
        if term is None:
            if len(self._clock_pow) >= self._MAX_ENTRIES:
                self._clock_pow.clear()
            term = min(max(clock_frac, 0.0), 1.0) ** DVFS_POWER_EXPONENT
            self._clock_pow[clock_frac] = term
        return term

    def idle_power(self) -> float:
        """Board power with no kernels resident (memoized)."""
        return self.evaluate_parts(1.0, 0.0, 0.0, ())
