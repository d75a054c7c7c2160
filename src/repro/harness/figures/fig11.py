"""Fig. 11: Tensor Cores (FP32 -> TF32) vs general-purpose FP32.

The comparison keeps storage precision at FP32 and toggles only the
datapath: vector ALUs vs tensor cores via TF32 conversion (PyTorch's
``allow_tf32``), exactly the paper's ablation.
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
    ("gpt3-6.7b", 16),
)
QUICK_WORKLOADS: Tuple[Tuple[str, int], ...] = (
    ("gpt3-xl", 8),
    ("gpt3-6.7b", 16),
)


def scenario_spec(quick: bool = True) -> SweepSpec:
    """Workload pairs (zipped) x the tensor-core toggle at FP32."""
    workloads = QUICK_WORKLOADS if quick else WORKLOADS
    return SweepSpec(
        name="fig11",
        description="vector FP32 vs tensor-core TF32 ablation (Fig. 11)",
        base={
            "gpu": "H100",
            "strategy": "fsdp",
            "precision": Precision.FP32,
            "runs": 1,
        },
        axes=[
            {
                "model": [model for model, _ in workloads],
                "batch_size": [batch for _, batch in workloads],
            },
            {"use_tensor_cores": [False, True]},
        ],
        modes=("overlapped", "sequential"),
    )


def generate(cells: Sequence[GridRow]) -> List[Dict[str, object]]:
    """Rows: workload x {vector FP32, tensor-core TF32}."""
    return ablation_rows(
        cells,
        label_field="datapath",
        label_for=lambda config: (
            "tf32-tensor" if config.use_tensor_cores else "fp32-vector"
        ),
    )


def render(rows: List[Dict[str, object]]) -> str:
    headers = [
        "model",
        "batch",
        "datapath",
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
                f"{row['datapath']}: {row['skipped']}"
            )
            continue
        body.append(
            [
                row["model"],
                row["batch"],
                row["datapath"],
                f"{row['compute_slowdown'] * 100:.1f}%",
                f"{row['overlap_ratio'] * 100:.1f}%",
                f"{row['avg_power_tdp']:.2f}x",
                f"{row['peak_power_tdp']:.2f}x",
                f"{row['e2e_ms']:.0f}",
            ]
        )
    text = (
        "Fig. 11 - tensor-core (TF32) vs vector FP32 ablation\n"
        + render_table(headers, body)
    )
    if notes:
        text += "\n" + "\n".join(notes)
    return text


register_scenario(
    "fig11",
    description="Fig. 11: tensor-core TF32 vs vector FP32 slowdown and power",
    spec=scenario_spec,
    generate=generate,
    render=render,
)
