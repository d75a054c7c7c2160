"""Fig. 6: average and peak power consumption vs TDP across the grid."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.modes import ExecutionMode
from repro.core.sweep import GridRow
from repro.harness.figures.grid import grid_spec
from repro.scenario.registry import register_scenario
from repro.harness.report import render_table


def generate(cells: Sequence[GridRow]) -> List[Dict[str, object]]:
    """Per-cell sampled power statistics, overlapped vs sequential."""
    rows: List[Dict[str, object]] = []
    for cell in cells:
        if not cell.ran:
            continue
        result = cell.result
        tdp = result.tdp_w
        avg_ov, peak_ov = result.power_vs_tdp(ExecutionMode.OVERLAPPED)
        avg_seq, peak_seq = result.power_vs_tdp(ExecutionMode.SEQUENTIAL)
        rows.append(
            {
                "gpu": cell.config.gpu,
                "strategy": cell.config.strategy,
                "model": cell.config.model,
                "batch": cell.config.batch_size,
                "tdp_w": tdp,
                "avg_power_overlap_tdp": avg_ov,
                "peak_power_overlap_tdp": peak_ov,
                "avg_power_sequential_tdp": avg_seq,
                "peak_power_sequential_tdp": peak_seq,
                "peak_increase_from_overlap": (
                    peak_ov / peak_seq - 1.0 if peak_seq > 0 else 0.0
                ),
                "energy_overlap_j": result.modes[
                    ExecutionMode.OVERLAPPED
                ].energy_j,
                "energy_sequential_j": result.modes[
                    ExecutionMode.SEQUENTIAL
                ].energy_j,
            }
        )
    return rows


def render(rows: List[Dict[str, object]]) -> str:
    headers = [
        "gpu",
        "strategy",
        "model",
        "batch",
        "avgP_ov",
        "peakP_ov",
        "avgP_seq",
        "peakP_seq",
        "peak_delta",
    ]
    body = [
        [
            row["gpu"],
            row["strategy"],
            row["model"],
            row["batch"],
            f"{row['avg_power_overlap_tdp']:.2f}x",
            f"{row['peak_power_overlap_tdp']:.2f}x",
            f"{row['avg_power_sequential_tdp']:.2f}x",
            f"{row['peak_power_sequential_tdp']:.2f}x",
            f"{row['peak_increase_from_overlap'] * 100:+.1f}%",
        ]
        for row in rows
    ]
    return (
        "Fig. 6 - power consumption (fractions of TDP, vendor-sampled)\n"
        + render_table(headers, body)
    )


register_scenario(
    "fig6",
    description="Fig. 6: average/peak power vs TDP across the grid",
    spec=grid_spec,
    generate=generate,
    render=render,
)
