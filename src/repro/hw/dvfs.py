"""Dynamic voltage/frequency scaling and power-limit enforcement.

Real boards enforce their power limit with a firmware control loop that
averages power over a window and moves the SM clock. We reproduce that
with an EWMA of instantaneous power and a proportional clock update:
instantaneous samples may exceed the limit (the >TDP spikes of Fig. 7)
while the moving average converges to it, and *stricter* caps bite
harder exactly when compute and communication overlap (Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass

from functools import lru_cache

from repro.errors import ConfigurationError
from repro.hw.power import DVFS_POWER_EXPONENT
from repro.units import MS

#: Inverse exponent used to invert P ~ f^k for the clock update.
_INV_DVFS_EXPONENT = 1.0 / DVFS_POWER_EXPONENT


@lru_cache(maxsize=4096)
def _inv_exponent_pow(x: float) -> float:
    """``x ** (1 / DVFS_POWER_EXPONENT)``, memoized on the exact float.

    Between engine events power is piecewise constant, so consecutive
    governor ticks keep inverting the same limit/power ratios; pow()
    dominates the tick cost otherwise.
    """
    return x ** _INV_DVFS_EXPONENT


@dataclass(frozen=True)
class PowerLimitPolicy:
    """Configuration of a board power limit.

    Attributes:
        limit_w: enforced average board power (``nvidia-smi -pl``).
        control_period_s: governor tick interval.
        ewma_window_s: averaging window of the control loop; the EWMA
            smoothing factor is derived as ``period / window``.
        max_clock_frac: additional frequency cap (1.0 = uncapped), used
            for the frequency-capping ablations.
    """

    limit_w: float
    control_period_s: float = 2.0 * MS
    ewma_window_s: float = 80.0 * MS
    max_clock_frac: float = 1.0

    def __post_init__(self) -> None:
        if self.limit_w <= 0:
            raise ConfigurationError("power limit must be positive")
        if self.control_period_s <= 0:
            raise ConfigurationError("control period must be positive")
        if self.ewma_window_s < self.control_period_s:
            raise ConfigurationError(
                "EWMA window must be >= control period"
            )
        if not 0.0 < self.max_clock_frac <= 1.0:
            raise ConfigurationError("max_clock_frac must be in (0, 1]")

    @property
    def ewma_alpha(self) -> float:
        """Per-tick smoothing factor of the power EWMA."""
        return min(1.0, self.control_period_s / self.ewma_window_s)


class FrequencyGovernor:
    """Closed-loop clock controller enforcing a :class:`PowerLimitPolicy`.

    The governor assumes the dominant clock-sensitive power term scales
    as ``clock_frac ** DVFS_POWER_EXPONENT`` and inverts that relation
    to pick the next clock, with damping to avoid oscillation.
    """

    def __init__(self, policy: PowerLimitPolicy, min_clock_frac: float = 0.30):
        if not 0.0 < min_clock_frac <= policy.max_clock_frac:
            raise ConfigurationError(
                "min_clock_frac must be in (0, max_clock_frac]"
            )
        self.policy = policy
        self.min_clock_frac = min_clock_frac
        # The policy is frozen: read its constants once, not on every
        # sample (ewma_alpha is a computed property).
        self._alpha = policy.ewma_alpha
        self._limit_w = policy.limit_w
        self._max_clock_frac = policy.max_clock_frac
        self._ewma_w: float = 0.0
        self._primed = False
        self.clock_frac: float = policy.max_clock_frac

    def observe(self, instantaneous_power_w: float) -> float:
        """Feed one power sample; returns the new clock fraction."""
        if instantaneous_power_w < 0:
            raise ConfigurationError("power sample must be >= 0")
        if not self._primed:
            self._ewma_w = instantaneous_power_w
            self._primed = True
        else:
            self._ewma_w += self._alpha * (
                instantaneous_power_w - self._ewma_w
            )

        limit = self._limit_w
        if self._ewma_w > limit:
            if instantaneous_power_w > limit:
                # Invert P ~ f^k for the clock-sensitive share; damp by
                # taking only a partial step toward the solution. The
                # target comes from the *instantaneous* sample: once the
                # board is back under the limit, further cuts would be
                # integrator windup against the stale moving average,
                # so the clock holds instead until the EWMA drains.
                ratio = limit / instantaneous_power_w
                target = self.clock_frac * _inv_exponent_pow(ratio)
                self.clock_frac = max(
                    self.min_clock_frac,
                    0.5 * self.clock_frac + 0.5 * target,
                )
        else:
            # Ramp back up, but never overshoot the frequency cap.
            headroom = limit / max(self._ewma_w, 1e-9)
            step = min(1.08, _inv_exponent_pow(headroom))
            self.clock_frac = min(
                self._max_clock_frac, self.clock_frac * step
            )
        return self.clock_frac
