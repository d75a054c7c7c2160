"""Fig. 4: computation slowdowns across GPUs, models, batches, strategies."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.sweep import GridRow, summarize_slowdowns
from repro.harness.figures.grid import grid_spec
from repro.scenario.registry import register_scenario
from repro.harness.report import render_table


def generate(cells: Sequence[GridRow]) -> List[Dict[str, object]]:
    """One row per feasible grid cell with Eq. 1 / Eq. 2 values."""
    rows: List[Dict[str, object]] = []
    for cell in cells:
        if not cell.ran:
            rows.append(
                {
                    "gpu": cell.config.gpu,
                    "strategy": cell.config.strategy,
                    "model": cell.config.model,
                    "batch": cell.config.batch_size,
                    "compute_slowdown": None,
                    "overlap_ratio": None,
                    "skipped": cell.skipped_reason,
                }
            )
            continue
        metrics = cell.result.metrics
        rows.append(
            {
                "gpu": cell.config.gpu,
                "strategy": cell.config.strategy,
                "model": cell.config.model,
                "batch": cell.config.batch_size,
                "compute_slowdown": metrics.compute_slowdown,
                "overlap_ratio": metrics.overlap_ratio,
                "skipped": None,
            }
        )
    return rows


def headline(cells: Sequence[GridRow]) -> Dict[str, float]:
    """The abstract's aggregate numbers over the grid's cells."""
    return summarize_slowdowns(cells)


def render(rows: List[Dict[str, object]]) -> str:
    """Text rendering with skipped cells annotated."""
    headers = ["gpu", "strategy", "model", "batch", "compute_slowdown", "overlap_ratio"]
    body = []
    skipped = []
    for row in rows:
        if row["skipped"]:
            skipped.append(
                f"  skipped {row['gpu']} {row['strategy']} {row['model']} "
                f"b{row['batch']}: {row['skipped']}"
            )
            continue
        body.append([
            row["gpu"],
            row["strategy"],
            row["model"],
            row["batch"],
            f"{row['compute_slowdown'] * 100:.1f}%",
            f"{row['overlap_ratio'] * 100:.1f}%",
        ])
    text = "Fig. 4 - compute slowdown grid\n" + render_table(headers, body)
    if skipped:
        text += "\nInfeasible cells (memory):\n" + "\n".join(skipped)
    return text


register_scenario(
    "fig4",
    description="Fig. 4: compute slowdown grid (GPUs x models x batches x strategies)",
    spec=grid_spec,
    generate=generate,
    render=render,
)
