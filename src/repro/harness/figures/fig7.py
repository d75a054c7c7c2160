"""Fig. 7: power time-trace of MI250 during LLaMA2-13B training.

Power is normalized to TDP, time to one iteration; samples are taken
with the 1 ms fine-grained AMD-SMI mode, and the overlap windows
(compute and communication simultaneously resident) are marked — the
spikes align with them, as in the paper.
"""

from __future__ import annotations

from typing import Dict

from repro.harness.ascii_plot import line_plot
from repro.scenario.registry import register_scenario
from repro.hw.system import make_node
from repro.parallel.strategy import build_plan
from repro.power.sampling import amd_smi_fast_sampler
from repro.sim.config import SimConfig
from repro.sim.engine import simulate
from repro.workloads.registry import get_model
from repro.workloads.transformer import TrainingShape


def generate(
    quick: bool = True,
    gpu: str = "MI250",
    model_name: str = "llama2-13b",
    batch: int = 8,
) -> Dict[str, object]:
    """Simulate one iteration and sample the power trace at 1 ms."""
    node = make_node(gpu, 4)
    model = get_model(model_name)
    shape = TrainingShape(batch_size=batch)
    plan = build_plan(node, model, shape, "fsdp", overlap=True)
    result = simulate(node, plan, SimConfig(jitter_sigma=0.02, seed=7))
    segments = result.power_segments[0]
    trace = amd_smi_fast_sampler().sample(segments)
    tdp = node.gpu.tdp_w
    duration = result.end_time_s
    samples = [
        {"t_norm": s.time_s / duration, "power_tdp": s.power_w / tdp}
        for s in trace.samples
    ]
    overlap_windows = [
        {"start_norm": seg.start_s / duration, "end_norm": seg.end_s / duration}
        for seg in segments
        if seg.overlapped
    ]
    peak_sample = max((s["power_tdp"] for s in samples), default=0.0)
    overlap_time = sum(
        w["end_norm"] - w["start_norm"] for w in overlap_windows
    )
    return {
        "system": f"{gpu}x4",
        "model": model_name,
        "batch": batch,
        "iteration_s": duration,
        "samples": samples,
        "overlap_windows": overlap_windows,
        "peak_power_tdp": peak_sample,
        "overlap_fraction_of_iteration": overlap_time,
    }


def render(data: Dict[str, object]) -> str:
    samples = data["samples"]
    points = [(s["t_norm"], s["power_tdp"]) for s in samples]
    plot = line_plot(
        points,
        title=(
            f"Fig. 7 - {data['system']} power trace, {data['model']} "
            f"b{data['batch']} (normalized to TDP / iteration)"
        ),
    )
    return (
        f"{plot}\n"
        f"peak sampled power: {data['peak_power_tdp']:.2f}x TDP; "
        f"overlap windows cover "
        f"{data['overlap_fraction_of_iteration'] * 100:.1f}% of the iteration"
    )


# A single traced iteration sampled at 1 ms — not a job sweep.
register_scenario(
    "fig7",
    description="Fig. 7: MI250 power time-trace during LLaMA2-13B training",
    generate=generate,
    render=render,
)
