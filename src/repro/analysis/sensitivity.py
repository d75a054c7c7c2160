"""Sensitivity of the simulated slowdown to calibration coefficients.

The contention model has a handful of per-vendor coefficients (see
:mod:`repro.hw.calibration`). This module quantifies how much each one
drives the headline metric — compute slowdown under overlap — via
one-factor-at-a-time sweeps, which doubles as an ablation of the
*mechanisms* the paper identifies: SM channel stealing, HBM bandwidth
interference, and rendezvous busy-polling.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.experiment import ExperimentConfig
from repro.core.modes import ExecutionMode
from repro.core.sweep import GridRow
from repro.errors import ConfigurationError
from repro.hw.calibration import ContentionCalibration, calibration_for
from repro.scenario.registry import register_scenario
from repro.scenario.runner import run_configs, run_spec
from repro.scenario.spec import SweepSpec

_MODES = (ExecutionMode.OVERLAPPED, ExecutionMode.SEQUENTIAL)

#: Coefficients worth sweeping (all floats of ContentionCalibration).
SWEEPABLE = (
    "comm_sm_fraction",
    "interference_factor",
    "hbm_wire_scale",
    "comm_clock_sensitivity",
    "spin_sm_scale",
    "stall_power_frac",
)


@dataclass(frozen=True)
class SensitivityPoint:
    """One (parameter value -> metrics) observation."""

    parameter: str
    value: float
    compute_slowdown: float
    overlap_ratio: float
    e2e_overlapping_s: float
    avg_power_tdp: float
    peak_power_tdp: float


def _with_value(
    base: ContentionCalibration, parameter: str, value: float
) -> ContentionCalibration:
    if parameter not in SWEEPABLE:
        raise ConfigurationError(
            f"unknown calibration parameter {parameter!r} "
            f"(sweepable: {', '.join(SWEEPABLE)})"
        )
    return dataclasses.replace(base, **{parameter: value})


def sweep_parameter(
    config: ExperimentConfig,
    parameter: str,
    values: Sequence[float],
    base: Optional[ContentionCalibration] = None,
) -> List[SensitivityPoint]:
    """Run ``config`` once per calibration value of ``parameter``, all
    values in one batch."""
    if base is None:
        base = config.node().calibration
    # The calibration override is part of the job's cache key, so
    # every sweep point is cached independently.
    configs = [
        config.with_updates(calibration=_with_value(base, parameter, value))
        for value in values
    ]
    cells = run_configs(configs, _MODES)
    points: List[SensitivityPoint] = []
    for value, cell in zip(values, cells):
        result = cell.unwrap()
        avg, peak = result.power_vs_tdp(ExecutionMode.OVERLAPPED)
        points.append(
            SensitivityPoint(
                parameter=parameter,
                value=value,
                compute_slowdown=result.metrics.compute_slowdown,
                overlap_ratio=result.metrics.overlap_ratio,
                e2e_overlapping_s=result.metrics.e2e_overlapping_s,
                avg_power_tdp=avg,
                peak_power_tdp=peak,
            )
        )
    return points


@dataclass(frozen=True)
class TornadoBar:
    """Slowdown swing when one coefficient moves +-``rel_delta``."""

    parameter: str
    low_value: float
    high_value: float
    slowdown_at_low: float
    slowdown_at_high: float
    baseline_slowdown: float

    @property
    def swing(self) -> float:
        """Total slowdown range across the parameter excursion."""
        return abs(self.slowdown_at_high - self.slowdown_at_low)


def _excursions(
    base: ContentionCalibration,
    rel_delta: float,
    parameters: Sequence[str] = SWEEPABLE,
) -> List[tuple]:
    """(parameter, low, high) spans scaled by ``1 +- rel_delta``."""
    if not 0.0 < rel_delta < 1.0:
        raise ConfigurationError("rel_delta must be in (0, 1)")
    spans = []
    for parameter in parameters:
        center = getattr(base, parameter)
        low = center * (1.0 - rel_delta)
        high = center * (1.0 + rel_delta)
        # Fractional coefficients live in [0, 1); clamp the excursion.
        if parameter != "hbm_wire_scale":
            high = min(high, 0.99)
        spans.append((parameter, low, high))
    return spans


def tornado_spec(
    config: ExperimentConfig,
    rel_delta: float = 0.5,
    parameters: Sequence[str] = SWEEPABLE,
) -> SweepSpec:
    """The tornado's cells as a declarative spec.

    The baseline cell, then each parameter's low and high excursion,
    each carrying its full calibration override as a serializable
    include cell: what :func:`tornado` and ``scenario run
    sensitivity`` resolve.
    """
    base = config.node().calibration
    base_overrides = {
        f.name: getattr(config, f.name)
        for f in dataclasses.fields(config)
    }
    include = [{}]  # the baseline cell
    for parameter, low, high in _excursions(base, rel_delta, parameters):
        for value in (low, high):
            include.append(
                {"calibration": _with_value(base, parameter, value)}
            )
    return SweepSpec(
        name="sensitivity",
        description="calibration tornado excursions",
        base=base_overrides,
        include=include,
        modes=_MODES,
    )


def _bars(
    cells: Sequence[GridRow],
    rel_delta: float,
    parameters: Sequence[str] = SWEEPABLE,
) -> List[TornadoBar]:
    """Tornado bars of :func:`tornado_spec`'s resolved cells, sorted by
    swing, largest first."""
    base = cells[0].config.node().calibration  # the baseline cell's
    spans = _excursions(base, rel_delta, parameters)
    slowdowns = [cell.unwrap().metrics.compute_slowdown for cell in cells]
    bars = [
        TornadoBar(
            parameter=parameter,
            low_value=low,
            high_value=high,
            slowdown_at_low=slowdowns[1 + 2 * index],
            slowdown_at_high=slowdowns[2 + 2 * index],
            baseline_slowdown=slowdowns[0],
        )
        for index, (parameter, low, high) in enumerate(spans)
    ]
    bars.sort(key=lambda b: b.swing, reverse=True)
    return bars


def tornado(
    config: ExperimentConfig,
    rel_delta: float = 0.5,
    parameters: Sequence[str] = SWEEPABLE,
) -> List[TornadoBar]:
    """One-factor tornado analysis around the default calibration.

    Each coefficient is scaled by (1 - rel_delta) and (1 + rel_delta),
    clamped to its valid range; bars come back sorted by swing, largest
    first — the mechanisms that matter most for this configuration.
    Every cell resolves in one batch, so ``--jobs N`` runs them in
    parallel.
    """
    cells = run_spec(tornado_spec(config, rel_delta, parameters))
    return _bars(cells, rel_delta, parameters)


def render_tornado(bars: List[TornadoBar]) -> str:
    """ASCII tornado chart of calibration sensitivities."""
    if not bars:
        return "(no bars)"
    width = 40
    max_swing = max(b.swing for b in bars) or 1.0
    lines = [
        f"baseline slowdown {bars[0].baseline_slowdown * 100:.1f}%; "
        f"bars show slowdown at -/+ excursion"
    ]
    for b in bars:
        n = max(1, int(round(b.swing / max_swing * width)))
        lines.append(
            f"{b.parameter:<24} {'#' * n:<{width}} "
            f"[{b.slowdown_at_low * 100:5.1f}% .. "
            f"{b.slowdown_at_high * 100:5.1f}%]"
        )
    return "\n".join(lines)


def mechanism_attribution(
    config: ExperimentConfig,
) -> Dict[str, float]:
    """Slowdown attribution by zeroing one mechanism at a time.

    Returns the slowdown *recovered* when each mechanism is switched
    off (larger = that mechanism explains more of the contention). The
    full cell and the three ablated ones resolve in one batch.
    """
    base = calibration_for(config.node().gpu.vendor)
    zeroed = {
        "sm_stealing": dataclasses.replace(
            base, comm_sm_fraction=0.0, spin_sm_scale=0.0
        ),
        "hbm_interference": dataclasses.replace(base, interference_factor=0.0),
        "hbm_traffic": dataclasses.replace(base, hbm_wire_scale=1e-6),
    }
    configs = [config] + [
        config.with_updates(calibration=calibration)
        for calibration in zeroed.values()
    ]
    full, *ablated = [
        cell.unwrap().metrics.compute_slowdown
        for cell in run_configs(configs, _MODES)
    ]
    attribution: Dict[str, float] = {"total": full}
    for name, slowdown in zip(zeroed, ablated):
        attribution[name] = full - slowdown
    return attribution


#: Default configuration of the CLI's ``sensitivity`` subcommand.
DEFAULT_TORNADO_CONFIG = dict(
    gpu="MI210", model="gpt3-xl", batch_size=8, strategy="fsdp", runs=1
)


def scenario_spec(quick: bool = True) -> SweepSpec:
    """The default tornado's cells (CLI defaults, +-50% excursions)."""
    return tornado_spec(
        ExperimentConfig(**DEFAULT_TORNADO_CONFIG), rel_delta=0.5
    )


def scenario_generate(cells: Sequence[GridRow]) -> List[Dict[str, object]]:
    """JSON-able tornado bars for the default configuration."""
    return [
        {
            "parameter": bar.parameter,
            "low_value": bar.low_value,
            "high_value": bar.high_value,
            "slowdown_at_low": bar.slowdown_at_low,
            "slowdown_at_high": bar.slowdown_at_high,
            "baseline_slowdown": bar.baseline_slowdown,
            "swing": bar.swing,
        }
        for bar in _bars(cells, rel_delta=0.5)
    ]


def scenario_render(rows: List[Dict[str, object]]) -> str:
    return render_tornado(
        [
            TornadoBar(
                parameter=row["parameter"],
                low_value=row["low_value"],
                high_value=row["high_value"],
                slowdown_at_low=row["slowdown_at_low"],
                slowdown_at_high=row["slowdown_at_high"],
                baseline_slowdown=row["baseline_slowdown"],
            )
            for row in rows
        ]
    )


register_scenario(
    "sensitivity",
    description="tornado analysis of the contention-calibration coefficients",
    spec=scenario_spec,
    generate=scenario_generate,
    render=scenario_render,
)
