"""Memory-feasibility checks for (model, system, strategy) configs.

Reproduces the paper's hardware constraint: "the A100 was constrained
to models up to GPT-3 2.7B" because of its 40 GB capacity — larger
models simply do not fit and are excluded from the sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hw.system import NodeSpec
from repro.parallel.pipeline import DEFAULT_MICROBATCH
from repro.parallel.strategy import Strategy
from repro.units import GIB
from repro.workloads.memory_footprint import (
    MemoryFootprint,
    fsdp_footprint,
    pipeline_footprint,
    tensor_parallel_footprint,
)
from repro.workloads.spec import ModelSpec
from repro.workloads.transformer import TrainingShape


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a feasibility check."""

    fits: bool
    footprint: MemoryFootprint
    capacity_bytes: float
    reason: str


def check_feasibility(
    node: NodeSpec,
    model: ModelSpec,
    shape: TrainingShape,
    strategy: "str | Strategy",
    microbatch_size: Optional[int] = None,
    pipeline_schedule: str = "1f1b",
) -> FeasibilityReport:
    """Whether the configuration fits in per-GPU memory.

    ``pipeline_schedule`` controls how many microbatches hold live
    activations at once (GPipe: all; 1F1B: the stage depth). The
    default matches the conventional 1F1B deployment.
    """
    strategy = Strategy.parse(strategy)
    per_gpu_batch = max(1, -(-shape.batch_size // node.num_gpus))
    if strategy is Strategy.FSDP:
        footprint = fsdp_footprint(
            model, shape.with_batch(per_gpu_batch), node.num_gpus
        )
    elif strategy is Strategy.PIPELINE:
        if microbatch_size is None:
            microbatch_size = min(DEFAULT_MICROBATCH, shape.batch_size)
        from repro.parallel.pipeline import default_num_microbatches
        from repro.parallel.schedules import max_live_microbatches

        num_micro = default_num_microbatches(
            shape.batch_size, microbatch_size
        )
        live = max_live_microbatches(
            pipeline_schedule, node.num_gpus, num_micro
        )
        footprint = pipeline_footprint(
            model, shape, node.num_gpus, microbatch_size,
            live_microbatches=live,
        )
    elif strategy is Strategy.TENSOR:
        # Tensor parallelism computes on the full batch on every rank.
        footprint = tensor_parallel_footprint(model, shape, node.num_gpus)
    else:  # DDP: full replica per GPU
        footprint = fsdp_footprint(model, shape.with_batch(per_gpu_batch), 1)
    capacity = float(node.gpu.memory.capacity_bytes)
    fits = footprint.fits(capacity)
    if fits:
        reason = (
            f"fits: {footprint.total_bytes / GIB:.1f} GiB of "
            f"{capacity / GIB:.0f} GiB"
        )
    else:
        reason = (
            f"out of memory: needs {footprint.total_bytes / GIB:.1f} GiB, "
            f"{node.gpu.name} has {capacity / GIB:.0f} GiB "
            f"({model.name}, {strategy.value}, batch {shape.batch_size})"
        )
    return FeasibilityReport(
        fits=fits,
        footprint=footprint,
        capacity_bytes=capacity,
        reason=reason,
    )
