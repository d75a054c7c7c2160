"""Degradation scenarios: stragglers and flaky links under power caps.

Two registered sweeps built on the perturbation injector
(:mod:`repro.sim.perturb`):

* ``degrade_straggler`` — one rank's SM throughput is derated for the
  whole run (the classic fail-slow straggler). Synchronous data
  parallelism is gated by its slowest rank, so the whole-job slowdown
  tracks the per-rank derate almost 1:1; the sweep shows how much a
  power cap amplifies that (the governor is already throttling, so the
  straggler's lost headroom cannot be bought back).
* ``degrade_linkfail`` — one rank's links degrade (up to a full
  transient outage) for a bounded window mid-run. Collectives touching
  that rank stall until the window closes; overlap hides some of the
  stall, sequential execution eats all of it.

Each scenario crosses degradation magnitude x parallelism strategy x
board power cap against the healthy baseline of the same (strategy,
cap) cell, so every row reports slowdown vs its own healthy twin
rather than vs a different operating point.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.modes import ExecutionMode
from repro.core.sweep import GridRow
from repro.harness.report import render_table
from repro.scenario.registry import register_scenario
from repro.scenario.spec import SweepSpec
from repro.units import MS

STRATEGIES: Tuple[str, ...] = ("fsdp", "pipeline")
#: None = stock TDP enforcement; the explicit cap is Fig. 9's
#: mid-range point where the governor actively throttles.
CAPS_W: Tuple[Optional[float], ...] = (None, 250.0)

STRAGGLER_MAGNITUDES: Tuple[float, ...] = (0.1, 0.3, 0.5)
QUICK_STRAGGLER_MAGNITUDES: Tuple[float, ...] = (0.3,)

LINK_MAGNITUDES: Tuple[float, ...] = (0.5, 0.9, 1.0)
QUICK_LINK_MAGNITUDES: Tuple[float, ...] = (1.0,)

#: The flaky-link window is transient by design: a *permanent* full
#: outage (magnitude 1.0) would stall its collectives past the
#: simulation wall instead of modelling a blip that heals.
LINK_WINDOW_START_S = 2.0 * MS
LINK_WINDOW_DURATION_S = 100.0 * MS

#: Whole-run windows use the simulation wall, not infinity — inf never
#: schedules a PERTURB_END, which is fine, but a finite horizon keeps
#: the spec JSON round-trippable through spec files and ``--set``.
WHOLE_RUN_S = 600.0


def _perturbation_axis(
    kind: str,
    magnitudes: Tuple[float, ...],
    start_s: float,
    duration_s: float,
) -> List[List[dict]]:
    """Axis values: healthy baseline first, then rising magnitudes.

    Each value is a full perturbation list so the empty list is the
    natural healthy cell (it normalizes to ``()`` and is omitted from
    the cache payload, sharing keys with ordinary fault-free runs).
    """
    axis: List[List[dict]] = [[]]
    for magnitude in magnitudes:
        axis.append(
            [
                {
                    "kind": kind,
                    "target": "gpu:0",
                    "start_s": start_s,
                    "duration_s": duration_s,
                    "magnitude": magnitude,
                }
            ]
        )
    return axis


def _degradation_spec(
    name: str,
    description: str,
    kind: str,
    magnitudes: Tuple[float, ...],
    start_s: float,
    duration_s: float,
) -> SweepSpec:
    """The shared magnitude x strategy x cap grid for one fault kind."""
    return SweepSpec(
        name=name,
        description=description,
        base={
            "gpu": "A100",
            "model": "gpt3-2.7b",
            "batch_size": 8,
            "runs": 1,
        },
        axes=[
            {"strategy": list(STRATEGIES)},
            {"power_limit_w": list(CAPS_W)},
            {
                "perturbations": _perturbation_axis(
                    kind, magnitudes, start_s, duration_s
                )
            },
        ],
        modes=(ExecutionMode.OVERLAPPED, ExecutionMode.SEQUENTIAL),
    )


def generate(cells: Sequence[GridRow]) -> List[Dict[str, object]]:
    """One row per cell, with slowdowns vs the same-cell healthy twin.

    The perturbation axis is innermost and baseline-first, so within
    each (strategy, cap) block the healthy cell is always seen before
    its degraded siblings.
    """
    rows: List[Dict[str, object]] = []
    healthy: Dict[Tuple[str, Optional[float]], Dict[ExecutionMode, float]]
    healthy = {}
    for cell in cells:
        config = cell.config
        result = cell.unwrap()
        e2e = {
            mode: result.modes[mode].e2e_s
            for mode in (ExecutionMode.OVERLAPPED, ExecutionMode.SEQUENTIAL)
        }
        cell = (config.strategy, config.power_limit_w)
        magnitude = (
            config.perturbations[0].magnitude if config.perturbations else 0.0
        )
        if not config.perturbations:
            healthy[cell] = e2e
        base = healthy[cell]
        rows.append(
            {
                "strategy": config.strategy,
                "cap_w": config.power_limit_w,
                "magnitude": magnitude,
                "e2e_overlapped_ms": e2e[ExecutionMode.OVERLAPPED] / MS,
                "e2e_sequential_ms": e2e[ExecutionMode.SEQUENTIAL] / MS,
                "overlap_slowdown_vs_healthy": (
                    e2e[ExecutionMode.OVERLAPPED]
                    / base[ExecutionMode.OVERLAPPED]
                    - 1.0
                ),
                "sequential_slowdown_vs_healthy": (
                    e2e[ExecutionMode.SEQUENTIAL]
                    / base[ExecutionMode.SEQUENTIAL]
                    - 1.0
                ),
                "min_clock_frac": result.modes[
                    ExecutionMode.OVERLAPPED
                ].min_clock_frac,
            }
        )
    return rows


def _render_rows(title: str, rows: List[Dict[str, object]]) -> str:
    headers = [
        "strategy",
        "cap_w",
        "magnitude",
        "e2e_ov_ms",
        "e2e_seq_ms",
        "ov_vs_healthy",
        "seq_vs_healthy",
        "min_clock",
    ]
    body = [
        [
            str(row["strategy"]),
            "TDP" if row["cap_w"] is None else f"{row['cap_w']:.0f}",
            f"{row['magnitude']:.2f}",
            f"{row['e2e_overlapped_ms']:.1f}",
            f"{row['e2e_sequential_ms']:.1f}",
            f"+{row['overlap_slowdown_vs_healthy'] * 100:.1f}%",
            f"+{row['sequential_slowdown_vs_healthy'] * 100:.1f}%",
            f"{row['min_clock_frac']:.2f}",
        ]
        for row in rows
    ]
    return title + "\n" + render_table(headers, body)


def straggler_spec(quick: bool = True) -> SweepSpec:
    """Straggler grid: derate rank 0's SM throughput for the whole run."""
    magnitudes = (
        QUICK_STRAGGLER_MAGNITUDES if quick else STRAGGLER_MAGNITUDES
    )
    return _degradation_spec(
        name="degrade_straggler",
        description="straggler-rank degradation grid",
        kind="straggler_rank",
        magnitudes=magnitudes,
        start_s=0.0,
        duration_s=WHOLE_RUN_S,
    )


def straggler_render(rows: List[Dict[str, object]]) -> str:
    return _render_rows(
        "Degradation - straggler rank (gpu:0 derated, whole run)", rows
    )


def linkfail_spec(quick: bool = True) -> SweepSpec:
    """Flaky-link grid: rank 0's links degrade for a bounded window."""
    magnitudes = QUICK_LINK_MAGNITUDES if quick else LINK_MAGNITUDES
    return _degradation_spec(
        name="degrade_linkfail",
        description="flaky-link degradation grid",
        kind="flaky_link",
        magnitudes=magnitudes,
        start_s=LINK_WINDOW_START_S,
        duration_s=LINK_WINDOW_DURATION_S,
    )


def linkfail_render(rows: List[Dict[str, object]]) -> str:
    return _render_rows(
        "Degradation - flaky link (gpu:0 links derated, transient window)",
        rows,
    )


register_scenario(
    "degrade_straggler",
    description=(
        "Straggler-rank degradation: magnitude x strategy x power cap"
    ),
    spec=straggler_spec,
    generate=generate,
    render=straggler_render,
)

register_scenario(
    "degrade_linkfail",
    description=(
        "Flaky-link degradation: transient outage x strategy x power cap"
    ),
    spec=linkfail_spec,
    generate=generate,
    render=linkfail_render,
)
