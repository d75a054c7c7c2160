"""Fig. 10: effect of numeric precision (FP32 vs FP16) on slowdown and power.

FP16 shortens compute much more than it shortens communication, which
raises the overlap ratio; for large workloads this intensifies
contention even as small workloads get cheaper — the paper's
takeaway 7.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.sweep import GridRow
from repro.harness.figures.ablation import ablation_rows
from repro.harness.report import render_table
from repro.hw.datapath import Precision
from repro.scenario.registry import register_scenario
from repro.scenario.spec import SweepSpec

WORKLOADS: Tuple[Tuple[str, int], ...] = (
    ("gpt3-xl", 8),
    ("gpt3-xl", 32),
    ("gpt3-2.7b", 8),
    ("gpt3-2.7b", 32),
    ("gpt3-6.7b", 16),
)
QUICK_WORKLOADS: Tuple[Tuple[str, int], ...] = (
    ("gpt3-xl", 8),
    ("gpt3-6.7b", 16),
)


def scenario_spec(quick: bool = True) -> SweepSpec:
    """Workload pairs (zipped) x precision knob (zipped with datapath).

    FP32 runs on the general (vector) datapath in this ablation;
    tensor-core FP32 (TF32) is Fig. 11's knob — hence precision and
    ``use_tensor_cores`` advance together as one zipped group.
    """
    workloads = QUICK_WORKLOADS if quick else WORKLOADS
    return SweepSpec(
        name="fig10",
        description="FP32 vs FP16 ablation (Fig. 10)",
        base={"gpu": "H100", "strategy": "fsdp", "runs": 1},
        axes=[
            {
                "model": [model for model, _ in workloads],
                "batch_size": [batch for _, batch in workloads],
            },
            {
                "precision": [Precision.FP32, Precision.FP16],
                "use_tensor_cores": [False, True],
            },
        ],
        modes=("overlapped", "sequential"),
    )


def generate(cells: Sequence[GridRow]) -> List[Dict[str, object]]:
    """Rows: workload x {fp32, fp16} with slowdown and power columns."""
    return ablation_rows(
        cells,
        label_field="precision",
        label_for=lambda config: config.precision.value,
    )


def render(rows: List[Dict[str, object]]) -> str:
    headers = [
        "model",
        "batch",
        "precision",
        "slowdown",
        "overlap_ratio",
        "avgP",
        "peakP",
        "e2e_ms",
    ]
    body = []
    notes = []
    for row in rows:
        if row.get("skipped"):
            notes.append(
                f"  skipped {row['model']} b{row['batch']} "
                f"{row['precision']}: {row['skipped']}"
            )
            continue
        body.append(
            [
                row["model"],
                row["batch"],
                row["precision"],
                f"{row['compute_slowdown'] * 100:.1f}%",
                f"{row['overlap_ratio'] * 100:.1f}%",
                f"{row['avg_power_tdp']:.2f}x",
                f"{row['peak_power_tdp']:.2f}x",
                f"{row['e2e_ms']:.0f}",
            ]
        )
    text = "Fig. 10 - numeric precision ablation (FP32 vs FP16)\n" + render_table(
        headers, body
    )
    if notes:
        text += "\n" + "\n".join(notes)
    return text


register_scenario(
    "fig10",
    description="Fig. 10: FP32 vs FP16 slowdown and power",
    spec=scenario_spec,
    generate=generate,
    render=render,
)
