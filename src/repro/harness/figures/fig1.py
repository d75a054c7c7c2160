"""Fig. 1: amount of overlapping computation/communication.

(a) H100 x 8 with FSDP across model sizes and batch sizes;
(b) A100 x 4 with pipeline parallelism, GPT-3 2.7B, batch sweep.

Reported per cell: overlapped time in ms (compute concurrently with
communication) and its share of the iteration — both grow with model
size and batch size, the trend motivating the paper.
"""

from __future__ import annotations

from typing import Dict, List

from repro.harness.report import render_table
from repro.scenario.registry import register_scenario
from repro.hw.system import make_node
from repro.parallel.strategy import build_plan
from repro.profiler.summary import summarize
from repro.sim.config import SimConfig
from repro.sim.engine import simulate
from repro.units import MS
from repro.workloads.registry import get_model
from repro.workloads.transformer import TrainingShape

FSDP_MODELS = ("gpt3-xl", "gpt3-2.7b", "gpt3-6.7b", "gpt3-13b")
BATCHES = (8, 16, 32, 64)
QUICK_FSDP_MODELS = ("gpt3-xl", "gpt3-13b")
QUICK_BATCHES = (8, 32)


def _overlap_cell(
    gpu: str, num_gpus: int, model_name: str, batch: int, strategy: str
) -> Dict[str, object]:
    node = make_node(gpu, num_gpus)
    model = get_model(model_name)
    shape = TrainingShape(batch_size=batch)
    plan = build_plan(node, model, shape, strategy, overlap=True)
    result = simulate(node, plan, SimConfig(trace_power=False))
    profile = summarize(result)
    overlapped_s = sum(
        profile.compute(g).overlapped_time_s for g in range(num_gpus)
    ) / num_gpus
    return {
        "system": f"{gpu}x{num_gpus}",
        "strategy": strategy,
        "model": model_name,
        "batch": batch,
        "overlapped_ms": overlapped_s / MS,
        "overlap_share_of_iteration": overlapped_s / result.end_time_s,
        "overlap_ratio_eq2": profile.mean_overlapped_compute_fraction(),
        "e2e_ms": result.end_time_s / MS,
    }


def generate(quick: bool = True) -> List[Dict[str, object]]:
    """Produce both panels' rows."""
    models = QUICK_FSDP_MODELS if quick else FSDP_MODELS
    batches = QUICK_BATCHES if quick else BATCHES
    rows: List[Dict[str, object]] = []
    # Panel (a): H100 x 8, FSDP.
    for model_name in models:
        for batch in batches:
            rows.append(_overlap_cell("H100", 8, model_name, batch, "fsdp"))
    # Panel (b): A100 x 4, pipeline parallelism, GPT-3 2.7B.
    for batch in batches:
        rows.append(_overlap_cell("A100", 4, "gpt3-2.7b", batch, "pipeline"))
    return rows


def render(rows: List[Dict[str, object]]) -> str:
    """Text rendering of both panels."""
    headers = [
        "system",
        "strategy",
        "model",
        "batch",
        "overlapped_ms",
        "overlap_ratio_eq2",
        "e2e_ms",
    ]
    return "Fig. 1 - overlapping computation/communication\n" + render_table(
        headers, [[row[h] for h in headers] for row in rows]
    )


# Fig. 1's cells are single profiled simulations (overlap windows come
# from the profiler summary, not from ExperimentResult), so the
# scenario is registered without a sweep spec.
register_scenario(
    "fig1",
    description="Fig. 1: amount of overlapping compute/communication",
    generate=generate,
    render=render,
)
