"""Fully-Sharded Data Parallel (ZeRO-3) execution plans.

Reproduces the communication structure of DeepSpeed ZeRO-3 / PyTorch
FSDP that the paper measures:

* forward: per-layer parameter ``all-gather``, prefetched one layer
  ahead so it overlaps the previous layer's compute;
* backward: parameters re-gathered per layer (reshard-after-forward),
  and gradients ``reduce-scatter``-ed as soon as a layer's backward
  completes, overlapping the next layer's backward compute;
* optimizer: each rank updates only its 1/N shard.

``shape.batch_size`` is the *global* batch (the number the paper
sweeps); each data-parallel rank computes on ``batch / world`` samples.

With ``grad_accum_steps > 1`` the local batch splits into that many
micro-steps whose gradients accumulate locally; the reduce-scatters are
deferred to the final micro-step — the gradient-accumulation mitigation
the paper names for FSDP's growing communication overhead (Section
II-B). Parameters are still re-gathered every micro-step (ZeRO-3's
reshard-after-forward default).

With ``overlap=False`` the identical operations are emitted on the
compute stream in dependency order — the paper's *sequential* baseline.
"""

from __future__ import annotations

import math
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


def build_fsdp_plan(
    node: NodeSpec,
    model: ModelSpec,
    shape: TrainingShape,
    overlap: bool = True,
    grad_accum_steps: int = 1,
) -> ExecutionPlan:
    """Build one FSDP training iteration for every GPU of ``node``."""
    world = node.num_gpus
    if world < 2:
        raise ConfigurationError("FSDP needs at least two GPUs")
    if grad_accum_steps < 1:
        raise ConfigurationError("grad_accum_steps must be >= 1")
    gpus = list(range(world))
    # Data parallelism splits the global batch across ranks; gradient
    # accumulation further splits each rank's batch into micro-steps.
    per_gpu_batch = max(1, math.ceil(shape.batch_size / world))
    if grad_accum_steps > per_gpu_batch:
        raise ConfigurationError(
            f"grad_accum_steps {grad_accum_steps} exceeds the per-GPU "
            f"batch {per_gpu_batch}"
        )
    micro_batch = max(1, math.ceil(per_gpu_batch / grad_accum_steps))
    local_shape = shape.with_batch(micro_batch)
    elt = shape.path.precision.bytes_per_element
    layer_bytes = float(model.params_per_layer) * elt
    embed_bytes = float(model.embedding_params) * elt
    comm_stream = COMM_STREAM if overlap else COMPUTE_STREAM

    mode = "overlap" if overlap else "sequential"
    builder = PlanBuilder(name=f"fsdp-{model.name}-b{shape.batch_size}-{mode}")
    builder.metadata.update(
        {
            "strategy": "fsdp",
            "overlap": overlap,
            "model": model.name,
            "batch_size": shape.batch_size,
            "per_gpu_batch": per_gpu_batch,
            "grad_accum_steps": grad_accum_steps,
            "world_size": world,
            "layer_payload_bytes": layer_bytes,
        }
    )

    head_fwd = build_head_forward(model, local_shape)
    embed_chain, lm_head_chain = (head_fwd[0],), (head_fwd[1],)
    last_layer = model.num_layers - 1
    rs_ids_per_gpu: Dict[int, List[int]] = {g: [] for g in gpus}

    for step in range(grad_accum_steps):
        tag = f".u{step}" if grad_accum_steps > 1 else ""
        # Deferred gradient sync: only the last micro-step communicates.
        emit_rs = step == grad_accum_steps - 1

        # ---------------- forward ----------------
        ag_embed = builder.add_collective(
            CollectiveKind.ALL_GATHER,
            embed_bytes,
            gpus,
            stream=comm_stream,
            phase="forward",
            label=f"ag.embed{tag}",
        )
        for g in gpus:
            builder.add_chain(g, embed_chain, [ag_embed[g]], phase="forward")

        fwd_ids: List[Dict[int, range]] = []
        for layer in range(model.num_layers):
            if overlap and layer >= 1:
                # Prefetch throttle: issue AG(i) once layer i-1's
                # compute begins.
                deps_by_gpu = {g: [fwd_ids[layer - 1][g][0]] for g in gpus}
            else:
                deps_by_gpu = {}
            ag = builder.add_collective(
                CollectiveKind.ALL_GATHER,
                layer_bytes,
                gpus,
                deps_by_gpu=deps_by_gpu,
                stream=comm_stream,
                phase="forward",
                label=f"ag.L{layer}{tag}",
            )
            kernels = build_layer_forward(model, local_shape, layer)
            layer_ids = {
                g: builder.add_chain(g, kernels, [ag[g]], phase="forward")
                for g in gpus
            }
            fwd_ids.append(layer_ids)

        # LM head re-gathers the (tied) embedding matrix.
        head_deps = (
            {g: [fwd_ids[last_layer][g][0]] for g in gpus}
            if overlap
            else {}
        )
        ag_head = builder.add_collective(
            CollectiveKind.ALL_GATHER,
            embed_bytes,
            gpus,
            deps_by_gpu=head_deps,
            stream=comm_stream,
            phase="forward",
            label=f"ag.head{tag}",
        )
        head_ids = {
            g: builder.add_chain(
                g, lm_head_chain, [ag_head[g]], phase="forward"
            )
            for g in gpus
        }

        # ---------------- backward ----------------
        head_bwd = tuple(build_head_backward(model, local_shape))
        head_bwd_ids = {
            g: builder.add_chain(
                g, head_bwd, [head_ids[g][-1]], phase="backward"
            )
            for g in gpus
        }
        if emit_rs:
            rs_head = builder.add_collective(
                CollectiveKind.REDUCE_SCATTER,
                embed_bytes,
                gpus,
                deps_by_gpu={g: [head_bwd_ids[g][-1]] for g in gpus},
                stream=comm_stream,
                phase="backward",
                label=f"rs.head{tag}",
            )
            for g in gpus:
                rs_ids_per_gpu[g].append(rs_head[g])

        bwd_ids: Dict[int, Dict[int, range]] = {}
        pending_ag: Dict[int, Dict[int, int]] = {}

        if overlap:
            # Backward re-gather of the last layer, issued after head
            # backward.
            pending_ag[last_layer] = builder.add_collective(
                CollectiveKind.ALL_GATHER,
                layer_bytes,
                gpus,
                deps_by_gpu={g: [head_bwd_ids[g][0]] for g in gpus},
                stream=comm_stream,
                phase="backward",
                label=f"agb.L{last_layer}{tag}",
            )

        for layer in range(last_layer, -1, -1):
            if not overlap:
                pending_ag[layer] = builder.add_collective(
                    CollectiveKind.ALL_GATHER,
                    layer_bytes,
                    gpus,
                    stream=comm_stream,
                    phase="backward",
                    label=f"agb.L{layer}{tag}",
                )
            ag = pending_ag.pop(layer)
            kernels = build_layer_backward(model, local_shape, layer)
            layer_ids = {
                g: builder.add_chain(g, kernels, [ag[g]], phase="backward")
                for g in gpus
            }
            bwd_ids[layer] = layer_ids
            if overlap and layer >= 1:
                # Prefetch AG(i-1) while bwd(i) computes, ahead of RS(i)
                # in comm-stream order so both can overlap compute.
                pending_ag[layer - 1] = builder.add_collective(
                    CollectiveKind.ALL_GATHER,
                    layer_bytes,
                    gpus,
                    deps_by_gpu={g: [layer_ids[g][0]] for g in gpus},
                    stream=comm_stream,
                    phase="backward",
                    label=f"agb.L{layer - 1}{tag}",
                )
            if emit_rs:
                rs = builder.add_collective(
                    CollectiveKind.REDUCE_SCATTER,
                    layer_bytes,
                    gpus,
                    deps_by_gpu={g: [layer_ids[g][-1]] for g in gpus},
                    stream=comm_stream,
                    phase="backward",
                    label=f"rs.L{layer}{tag}",
                )
                for g in gpus:
                    rs_ids_per_gpu[g].append(rs[g])

    # ---------------- optimizer ----------------
    shard_params = float(model.num_params) / world
    opt_kernels = tuple(
        build_optimizer_kernels(model, local_shape, params=shard_params)
    )
    for g in gpus:
        builder.add_chain(g, opt_kernels, rs_ids_per_gpu[g], phase="optimizer")

    return builder.build()
