"""Classic data-parallel (DDP) execution plans — the baseline strategy.

Every GPU holds a full replica; gradients are synchronized with
bucketed ``all-reduce`` that overlaps the remaining backward compute
(PyTorch DDP's reducer). Included as the baseline distribution scheme
and for the all-reduce microbenchmark family.
"""

from __future__ import annotations

from typing import Dict, List

from repro.collectives.primitives import CollectiveKind
from repro.errors import ConfigurationError
from repro.hw.system import NodeSpec
from repro.parallel.plan import ExecutionPlan, PlanBuilder
from repro.sim.task import COMM_STREAM, COMPUTE_STREAM
from repro.workloads.spec import ModelSpec
from repro.workloads.transformer import (
    TrainingShape,
    build_head_backward,
    build_head_forward,
    build_layer_backward,
    build_layer_forward,
    build_optimizer_kernels,
)


def build_ddp_plan(
    node: NodeSpec,
    model: ModelSpec,
    shape: TrainingShape,
    overlap: bool = True,
) -> ExecutionPlan:
    """Build one DDP training iteration (replicated model)."""
    world = node.num_gpus
    if world < 2:
        raise ConfigurationError("DDP needs at least two GPUs")
    gpus = list(range(world))
    # Data parallelism splits the global batch across ranks.
    per_gpu_batch = max(1, -(-shape.batch_size // world))
    local_shape = shape.with_batch(per_gpu_batch)
    elt = shape.path.precision.bytes_per_element
    layer_bytes = float(model.params_per_layer) * elt
    embed_bytes = float(model.embedding_params) * elt
    comm_stream = COMM_STREAM if overlap else COMPUTE_STREAM

    mode = "overlap" if overlap else "sequential"
    builder = PlanBuilder(name=f"ddp-{model.name}-b{shape.batch_size}-{mode}")
    builder.metadata.update(
        {
            "strategy": "ddp",
            "overlap": overlap,
            "model": model.name,
            "batch_size": shape.batch_size,
            "world_size": world,
            "per_gpu_batch": per_gpu_batch,
        }
    )

    head_fwd = build_head_forward(model, local_shape)
    embed_chain, lm_head_chain = (head_fwd[0],), (head_fwd[1],)

    # ---------------- forward (no communication in DDP) ---------------
    for g in gpus:
        builder.add_chain(g, embed_chain, phase="forward")
    for layer in range(model.num_layers):
        kernels = build_layer_forward(model, local_shape, layer)
        for g in gpus:
            builder.add_chain(g, kernels, phase="forward")
    for g in gpus:
        builder.add_chain(g, lm_head_chain, phase="forward")

    # ---------------- backward with bucketed all-reduce ---------------
    ar_ids: Dict[int, List[int]] = {g: [] for g in gpus}
    head_bwd = tuple(build_head_backward(model, local_shape))
    head_ids = {
        g: builder.add_chain(g, head_bwd, phase="backward") for g in gpus
    }
    ar_head = builder.add_collective(
        CollectiveKind.ALL_REDUCE,
        embed_bytes,
        gpus,
        deps_by_gpu={g: [head_ids[g][-1]] for g in gpus},
        stream=comm_stream,
        phase="backward",
        label="ar.head",
    )
    for g in gpus:
        ar_ids[g].append(ar_head[g])

    for layer in range(model.num_layers - 1, -1, -1):
        kernels = build_layer_backward(model, local_shape, layer)
        layer_ids = {
            g: builder.add_chain(g, kernels, phase="backward") for g in gpus
        }
        ar = builder.add_collective(
            CollectiveKind.ALL_REDUCE,
            layer_bytes,
            gpus,
            deps_by_gpu={g: [layer_ids[g][-1]] for g in gpus},
            stream=comm_stream,
            phase="backward",
            label=f"ar.L{layer}",
        )
        for g in gpus:
            ar_ids[g].append(ar[g])

    # ---------------- optimizer (full replica update) ------------------
    opt_kernels = tuple(build_optimizer_kernels(model, local_shape))
    for g in gpus:
        builder.add_chain(g, opt_kernels, ar_ids[g], phase="optimizer")

    return builder.build()
