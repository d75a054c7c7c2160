"""Shared row assembly for the datapath ablation figures (10 and 11).

Both figures sweep (model, batch) workloads across one binary knob —
numeric precision for Fig. 10, tensor-core usage for Fig. 11 — and
report the same slowdown/overlap/power columns per cell. Each figure
expresses its sweep as a :class:`~repro.scenario.spec.SweepSpec`
(workload pairs as a zipped axis group, the knob as the inner axis);
this helper owns the row shape of the spec's resolved cells, while the
figure modules supply the knob column's name and rendering.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.core.experiment import ExperimentConfig
from repro.core.modes import ExecutionMode
from repro.core.sweep import GridRow


def ablation_rows(
    cells: Sequence[GridRow],
    label_field: str,
    label_for: Callable[[ExperimentConfig], str],
) -> List[Dict[str, object]]:
    """Shape the spec's resolved cells into the figure rows.

    ``label_field``/``label_for`` name and render the knob column
    (``precision`` for Fig. 10, ``datapath`` for Fig. 11), reading the
    knob off each cell's config. Infeasible cells become rows with a
    ``skipped`` reason, like the grid figures.
    """
    rows: List[Dict[str, object]] = []
    for cell in cells:
        config = cell.config
        row: Dict[str, object] = {
            "gpu": config.gpu,
            "model": config.model,
            "batch": config.batch_size,
            label_field: label_for(config),
        }
        if not cell.ran:
            row["skipped"] = cell.skipped_reason
            rows.append(row)
            continue
        result = cell.result
        avg, peak = result.power_vs_tdp(ExecutionMode.OVERLAPPED)
        row.update(
            {
                "compute_slowdown": result.metrics.compute_slowdown,
                "overlap_ratio": result.metrics.overlap_ratio,
                "avg_power_tdp": avg,
                "peak_power_tdp": peak,
                "e2e_ms": result.metrics.e2e_overlapping_s * 1e3,
                "skipped": None,
            }
        )
        rows.append(row)
    return rows
