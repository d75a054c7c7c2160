"""Simulation configuration.

Every run is bit-exact: the only engine switch is the reference
oracle (``reference_engine``), which produces identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.perturb import PerturbationSpec, normalize_perturbations
from repro.units import MS


@dataclass(frozen=True)
class SimConfig:
    """Knobs of one simulation run.

    Attributes:
        contention_enabled: when False, compute kernels run at their
            isolated rates regardless of concurrent communication (the
            paper's *ideal* scenario) and the DVFS governor is disabled.
        power_limit_w: board power limit. ``None`` enforces the GPU's
            TDP (stock behaviour); the power-capping study (Fig. 9)
            passes explicit lower limits.
        max_clock_frac: frequency cap (1.0 = uncapped).
        governor_period_s: control-loop tick interval.
        jitter_sigma: lognormal sigma applied to each kernel's work
            (run-to-run nondeterminism; 0 disables).
        seed: RNG seed for jitter (a different seed per repeat gives the
            paper's 25-run averaging something to average over).
        trace_power: record piecewise power segments (needed for power
            figures; small overhead otherwise).
        max_sim_time_s: hard wall against runaway simulations.
        reference_engine: run the full-recompute reference engine
            instead of the incremental O(affected) one. The two are
            bit-for-bit identical (the equivalence suite pins this);
            the reference path exists as the correctness oracle and
            perf baseline.
        perturbations: degradation windows injected into the run as
            ``PERTURB_BEGIN``/``PERTURB_END`` events (stragglers, slow
            HBM, flaky links, thermal throttling — see
            :mod:`repro.sim.perturb`). Empty (the default) is the
            fault-free world. Accepts specs or plain mappings; stored
            as a validated tuple of :class:`PerturbationSpec`.
    """

    contention_enabled: bool = True
    power_limit_w: Optional[float] = None
    max_clock_frac: float = 1.0
    governor_period_s: float = 2.0 * MS
    jitter_sigma: float = 0.0
    seed: int = 0
    trace_power: bool = True
    max_sim_time_s: float = 600.0
    reference_engine: bool = False
    perturbations: Tuple[PerturbationSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "perturbations", normalize_perturbations(self.perturbations)
        )
        if self.power_limit_w is not None and self.power_limit_w <= 0:
            raise ConfigurationError("power_limit_w must be positive")
        if not 0.0 < self.max_clock_frac <= 1.0:
            raise ConfigurationError("max_clock_frac must be in (0, 1]")
        if self.governor_period_s <= 0:
            raise ConfigurationError("governor_period_s must be positive")
        if self.jitter_sigma < 0:
            raise ConfigurationError("jitter_sigma must be >= 0")
        if self.max_sim_time_s <= 0:
            raise ConfigurationError("max_sim_time_s must be positive")

    @property
    def governor_enabled(self) -> bool:
        """The governor runs unless the run models the ideal scenario."""
        return self.contention_enabled

    def ideal(self) -> "SimConfig":
        """Copy configured for the paper's ideal (no-interference) mode."""
        return replace(self, contention_enabled=False)
