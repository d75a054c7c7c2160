"""Fig. 9: impact of power capping on A100 x 4.

Sweeps ``nvidia-smi``-style board power limits and reports execution
time and compute slowdown for overlapped vs sequential execution. Under
strict caps, overlap amplifies the contention: compute and
communication fight for the power budget, not just for bandwidth.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.modes import ExecutionMode
from repro.core.sweep import GridRow
from repro.harness.report import render_table
from repro.scenario.registry import register_scenario
from repro.scenario.spec import SweepSpec
from repro.units import MS

CAPS_W: Tuple[float, ...] = (100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0)
QUICK_CAPS_W: Tuple[float, ...] = (100.0, 200.0, 400.0)


def scenario_spec(quick: bool = True) -> SweepSpec:
    """The power-cap sweep, loosest cap first (the uncapped baseline)."""
    caps = sorted(QUICK_CAPS_W if quick else CAPS_W, reverse=True)
    return SweepSpec(
        name="fig9",
        description="power capping sweep (Fig. 9)",
        base={
            "gpu": "A100",
            "model": "gpt3-2.7b",
            "batch_size": 8,
            "strategy": "fsdp",
            "runs": 1,
        },
        axes=[{"power_limit_w": list(caps)}],
        modes=(ExecutionMode.OVERLAPPED, ExecutionMode.SEQUENTIAL),
    )


def generate(cells: Sequence[GridRow]) -> List[Dict[str, object]]:
    """One row per power cap."""
    rows: List[Dict[str, object]] = []
    uncapped: Optional[Dict[ExecutionMode, float]] = None
    for cell in cells:
        result = cell.unwrap()
        e2e = {
            mode: result.modes[mode].e2e_s
            for mode in (ExecutionMode.OVERLAPPED, ExecutionMode.SEQUENTIAL)
        }
        if uncapped is None:
            uncapped = e2e
        rows.append(
            {
                "cap_w": cell.config.power_limit_w,
                "e2e_overlapped_ms": e2e[ExecutionMode.OVERLAPPED] / MS,
                "e2e_sequential_ms": e2e[ExecutionMode.SEQUENTIAL] / MS,
                "compute_slowdown": result.metrics.compute_slowdown,
                "overlap_slowdown_vs_uncapped": (
                    e2e[ExecutionMode.OVERLAPPED]
                    / uncapped[ExecutionMode.OVERLAPPED]
                    - 1.0
                ),
                "sequential_slowdown_vs_uncapped": (
                    e2e[ExecutionMode.SEQUENTIAL]
                    / uncapped[ExecutionMode.SEQUENTIAL]
                    - 1.0
                ),
                "min_clock_frac": result.modes[
                    ExecutionMode.OVERLAPPED
                ].min_clock_frac,
            }
        )
    return rows


def render(rows: List[Dict[str, object]]) -> str:
    headers = [
        "cap_w",
        "e2e_ov_ms",
        "e2e_seq_ms",
        "eq1_slowdown",
        "ov_vs_uncapped",
        "seq_vs_uncapped",
        "min_clock",
    ]
    body = [
        [
            f"{row['cap_w']:.0f}",
            f"{row['e2e_overlapped_ms']:.0f}",
            f"{row['e2e_sequential_ms']:.0f}",
            f"{row['compute_slowdown'] * 100:.1f}%",
            f"+{row['overlap_slowdown_vs_uncapped'] * 100:.1f}%",
            f"+{row['sequential_slowdown_vs_uncapped'] * 100:.1f}%",
            f"{row['min_clock_frac']:.2f}",
        ]
        for row in rows
    ]
    return "Fig. 9 - power capping on A100 x 4\n" + render_table(headers, body)


register_scenario(
    "fig9",
    description="Fig. 9: impact of power capping on A100 x 4",
    spec=scenario_spec,
    generate=generate,
    render=render,
)
