"""Operating points where overlap stops paying off.

The paper's headline tension: overlapped execution beats sequential on
average, but contention (especially under power caps) erodes the
margin. These helpers locate the crossovers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.experiment import ExperimentConfig, ExperimentResult
from repro.core.modes import ExecutionMode
from repro.core.sweep import GridRow
from repro.errors import ConfigurationError
from repro.exec.service import default_service
from repro.scenario.registry import register_scenario
from repro.scenario.runner import run_configs
from repro.scenario.spec import SweepSpec

_MODES = (ExecutionMode.OVERLAPPED, ExecutionMode.SEQUENTIAL)


@dataclass(frozen=True)
class BenefitPoint:
    """Overlap-vs-sequential comparison at one operating point."""

    label: str
    e2e_overlapped_s: float
    e2e_sequential_s: float
    compute_slowdown: float
    overlap_ratio: float

    @property
    def benefit(self) -> float:
        """Relative speedup of overlapped over sequential execution
        (positive = overlap wins)."""
        if self.e2e_overlapped_s <= 0:
            return 0.0
        return self.e2e_sequential_s / self.e2e_overlapped_s - 1.0


def _point(result: ExperimentResult, label: str) -> BenefitPoint:
    m = result.metrics
    return BenefitPoint(
        label=label,
        e2e_overlapped_s=m.e2e_overlapping_s,
        e2e_sequential_s=m.e2e_sequential_measured_s,
        compute_slowdown=m.compute_slowdown,
        overlap_ratio=m.overlap_ratio,
    )


def _trend(cells: Sequence[GridRow]) -> List[BenefitPoint]:
    """Benefit points of the feasible cells, in order, labelled by batch."""
    return [
        _point(cell.result, f"b{cell.config.batch_size}")
        for cell in cells
        if cell.ran
    ]


def _crossover(cells: Sequence[GridRow]) -> Optional[float]:
    """The first cap, loosest first, at which overlap stops beating
    sequential, or ``None``."""
    for cell in sorted(
        cells, key=lambda c: c.config.power_limit_w, reverse=True
    ):
        if _point(cell.unwrap(), "").benefit <= 0:
            return cell.config.power_limit_w
    return None


def overlap_benefit(config: ExperimentConfig, label: str = "") -> BenefitPoint:
    """Measure the overlap benefit for one configuration (cached)."""
    result = default_service().run_config(config, modes=_MODES)
    return _point(result, label or config.describe())


def find_cap_crossover(
    config: ExperimentConfig,
    caps_w: Sequence[float],
) -> Optional[float]:
    """Highest power cap at which overlap *stops* beating sequential.

    Resolves every cap in one batch, then walks ``caps_w`` from loosest
    to strictest and returns the first cap where the overlap benefit
    goes non-positive, or ``None`` if overlap wins everywhere. Under
    strict caps the combined compute+comm power draw forces deeper
    throttling of the overlapped schedule, which is exactly the
    contention amplification of Fig. 9.
    """
    if not caps_w:
        raise ConfigurationError("caps_w must not be empty")
    if any(cap <= 0 for cap in caps_w):
        raise ConfigurationError("power caps must be positive")
    return _crossover(
        run_configs(
            [config.with_updates(power_limit_w=cap) for cap in caps_w], _MODES
        )
    )


def batch_trend(
    config: ExperimentConfig,
    batch_sizes: Sequence[int],
) -> List[BenefitPoint]:
    """Overlap benefit across batch sizes (skipping OOM cells), resolved
    in one batch.

    FSDP's benefit shrinks with batch (communication amortizes);
    pipeline parallelism's grows (more in-flight microbatches overlap
    more) — the opposite trends of Fig. 4.
    """
    return _trend(
        run_configs(
            [config.with_updates(batch_size=batch) for batch in batch_sizes],
            _MODES,
        )
    )


def trend_slope(points: List[BenefitPoint], attribute: str) -> float:
    """Least-squares slope of ``attribute`` across a point sequence.

    Uses the point index as abscissa; the sign is what matters for
    trend assertions (e.g. slowdown rising vs falling with batch).
    """
    values = [getattr(p, attribute) for p in points]
    n = len(values)
    if n < 2:
        return 0.0
    xs = range(n)
    mean_x = sum(xs) / n
    mean_y = sum(values) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, values))
    var = sum((x - mean_x) ** 2 for x in xs)
    return cov / var if var else 0.0


# ----------------------------------------------------------------------
# The "crossover" scenario: where does overlap stop paying off?
# ----------------------------------------------------------------------

#: Batch axis of the benefit trends (Fig. 4's opposing slopes).
CROSSOVER_BATCHES = (8, 16, 32, 64)
QUICK_CROSSOVER_BATCHES = (8, 32)
#: Power caps probed for the Fig. 9-style benefit crossover.
CROSSOVER_CAPS_W = (100.0, 150.0, 200.0)

_CROSSOVER_GPU = "A100"
_CROSSOVER_MODEL = "gpt3-2.7b"


def scenario_spec(quick: bool = True) -> SweepSpec:
    """Strategy x batch benefit trends plus the power-cap excursions."""
    batches = QUICK_CROSSOVER_BATCHES if quick else CROSSOVER_BATCHES
    return SweepSpec(
        name="crossover",
        description="overlap-benefit trends and the power-cap crossover",
        base={"gpu": _CROSSOVER_GPU, "model": _CROSSOVER_MODEL, "runs": 1},
        axes=[
            {"strategy": ["fsdp", "pipeline"]},
            {"batch_size": list(batches)},
        ],
        include=[
            {
                "strategy": "fsdp",
                "batch_size": batches[0],
                "power_limit_w": cap,
            }
            for cap in CROSSOVER_CAPS_W
        ],
        modes=_MODES,
    )


def scenario_generate(cells: Sequence[GridRow]) -> Dict[str, object]:
    """Benefit trend rows per strategy plus the cap crossover point."""
    trends: List[Dict[str, object]] = []
    for strategy in ("fsdp", "pipeline"):
        points = _trend(
            [
                cell
                for cell in cells
                if cell.config.strategy == strategy
                and cell.config.power_limit_w is None
            ]
        )
        for point in points:
            trends.append(
                {
                    "strategy": strategy,
                    "label": point.label,
                    "benefit": point.benefit,
                    "compute_slowdown": point.compute_slowdown,
                    "overlap_ratio": point.overlap_ratio,
                }
            )
        trends.append(
            {
                "strategy": strategy,
                "label": "benefit_slope",
                "benefit": trend_slope(points, "benefit"),
                "compute_slowdown": None,
                "overlap_ratio": None,
            }
        )
    cap = _crossover(
        [cell for cell in cells if cell.config.power_limit_w is not None]
    )
    return {"trends": trends, "cap_crossover_w": cap}


def scenario_render(data: Dict[str, object]) -> str:
    lines = ["crossover - overlap benefit trends (A100, gpt3-2.7b)"]
    for row in data["trends"]:
        benefit = row["benefit"]
        if row["label"] == "benefit_slope":
            lines.append(
                f"  {row['strategy']:<9} slope of benefit vs batch: "
                f"{benefit:+.4f}"
            )
            continue
        lines.append(
            f"  {row['strategy']:<9} {row['label']:<5} "
            f"benefit {benefit * 100:+6.1f}%  "
            f"slowdown {row['compute_slowdown'] * 100:5.1f}%"
        )
    cap = data["cap_crossover_w"]
    lines.append(
        "  overlap wins at every probed cap"
        if cap is None
        else f"  overlap stops paying off at a {cap:.0f} W cap"
    )
    return "\n".join(lines)


register_scenario(
    "crossover",
    description="operating points where overlap stops beating sequential",
    spec=scenario_spec,
    generate=scenario_generate,
    render=scenario_render,
)
