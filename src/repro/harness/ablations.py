"""Ablations of the contention-model design choices (DESIGN.md §8).

Each ablation removes one mechanism from the calibration and re-runs a
reference workload, quantifying how much of the observed slowdown that
mechanism explains:

* ``no_sm_stealing``  — collectives pin no SMs/CUs;
* ``no_interference`` — HBM sharing is purely additive (no extra derate);
* ``no_bandwidth_ramp`` — links reach full bandwidth at any message size;
* ``no_spin``         — waiting collective kernels don't busy-poll.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.hw.calibration import ContentionCalibration, calibration_for
from repro.hw.system import NodeSpec, make_node
from repro.parallel.strategy import build_plan
from repro.sim.config import SimConfig
from repro.sim.engine import simulate
from repro.sim.task import TaskCategory
from repro.workloads.registry import get_model
from repro.workloads.transformer import TrainingShape


def _variants(base: ContentionCalibration) -> Dict[str, ContentionCalibration]:
    return {
        "full_model": base,
        "no_sm_stealing": dataclasses.replace(base, comm_sm_fraction=0.0),
        "no_interference": dataclasses.replace(base, interference_factor=0.0),
        "no_bandwidth_ramp": dataclasses.replace(base, msg_half_bytes=0.0),
        "no_spin": dataclasses.replace(base, spin_sm_scale=0.0),
    }


def run_contention_ablation(
    gpu: str = "MI250",
    model_name: str = "gpt3-13b",
    batch: int = 8,
    strategy: str = "fsdp",
) -> List[Dict[str, object]]:
    """Eq. 1 slowdown for the reference workload under each variant."""
    model = get_model(model_name)
    shape = TrainingShape(batch_size=batch)
    reference = make_node(gpu, 4)
    rows: List[Dict[str, object]] = []
    for name, calibration in _variants(reference.calibration).items():
        node = make_node(gpu, 4, calibration=calibration)
        plan_ov = build_plan(node, model, shape, strategy, overlap=True)
        plan_seq = build_plan(node, model, shape, strategy, overlap=False)
        r_ov = simulate(node, plan_ov, SimConfig(trace_power=False))
        r_seq = simulate(node, plan_seq, SimConfig(trace_power=False))
        c_ov = r_ov.total_time(TaskCategory.COMPUTE)
        c_seq = r_seq.total_time(TaskCategory.COMPUTE)
        rows.append(
            {
                "variant": name,
                "compute_slowdown": c_ov / c_seq - 1.0 if c_seq else 0.0,
                "e2e_overlapped_ms": r_ov.end_time_s * 1e3,
                "e2e_sequential_ms": r_seq.end_time_s * 1e3,
            }
        )
    return rows


def render_ablation(rows: List[Dict[str, object]]) -> str:
    """Text table of the ablation."""
    from repro.harness.report import render_table

    headers = ["variant", "slowdown", "e2e_ov_ms", "e2e_seq_ms"]
    body = [
        [
            row["variant"],
            f"{row['compute_slowdown'] * 100:.1f}%",
            f"{row['e2e_overlapped_ms']:.0f}",
            f"{row['e2e_sequential_ms']:.0f}",
        ]
        for row in rows
    ]
    return "Contention-model ablation (MI250, GPT-3 13B, b8)\n" + render_table(
        headers, body
    )
