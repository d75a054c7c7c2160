"""Fig. 5: end-to-end iteration latency — ideal vs overlapped vs sequential."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.sweep import GridRow
from repro.harness.figures.grid import grid_spec
from repro.scenario.registry import register_scenario
from repro.harness.report import render_table
from repro.units import MS


def generate(cells: Sequence[GridRow]) -> List[Dict[str, object]]:
    """One row per feasible cell with the three scenario latencies."""
    rows: List[Dict[str, object]] = []
    for cell in cells:
        if not cell.ran:
            continue
        metrics = cell.result.metrics
        rows.append(
            {
                "gpu": cell.config.gpu,
                "strategy": cell.config.strategy,
                "model": cell.config.model,
                "batch": cell.config.batch_size,
                "e2e_ideal_ms": metrics.e2e_ideal_s / MS,
                "e2e_ideal_simulated_ms": (
                    metrics.e2e_ideal_simulated_s / MS
                    if metrics.e2e_ideal_simulated_s is not None
                    else None
                ),
                "e2e_overlapped_ms": metrics.e2e_overlapping_s / MS,
                "e2e_sequential_ms": metrics.e2e_sequential_measured_s / MS,
                "overlapped_vs_ideal": metrics.overlapped_vs_ideal,
                "sequential_vs_overlapped": metrics.sequential_vs_overlapped,
            }
        )
    return rows


def render(rows: List[Dict[str, object]]) -> str:
    headers = [
        "gpu",
        "strategy",
        "model",
        "batch",
        "e2e_ideal_ms",
        "e2e_overlapped_ms",
        "e2e_sequential_ms",
        "ov_vs_ideal",
        "seq_vs_ov",
    ]
    body = [
        [
            row["gpu"],
            row["strategy"],
            row["model"],
            row["batch"],
            f"{row['e2e_ideal_ms']:.0f}",
            f"{row['e2e_overlapped_ms']:.0f}",
            f"{row['e2e_sequential_ms']:.0f}",
            f"+{row['overlapped_vs_ideal'] * 100:.1f}%",
            f"+{row['sequential_vs_overlapped'] * 100:.1f}%",
        ]
        for row in rows
    ]
    return "Fig. 5 - E2E latency by scenario\n" + render_table(headers, body)


register_scenario(
    "fig5",
    description="Fig. 5: e2e latency — ideal vs overlapped vs sequential",
    spec=grid_spec,
    generate=generate,
    render=render,
)
