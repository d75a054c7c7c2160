"""Pipeline-parallel execution plans (GPipe and 1F1B schedules).

The model is split into contiguous stages, one per GPU; microbatches
flow through the pipeline. Activations and gradients move between
neighbouring stages as point-to-point ``send/recv``, which in overlap
mode run on dedicated per-direction communication streams concurrently
with other microbatches' compute.

Two schedules are supported (see :mod:`repro.parallel.schedules`):
GPipe's all-forward-then-all-backward flush — the paper's Fig. 3(b) —
and the memory-efficient 1F1B interleave of PipeDream-flush.

The plan is emitted by walking every stage's schedule in lockstep and
releasing each step as soon as its producers exist, so both endpoints
of every transfer see a consistent stream program — the plan is
rendezvous-deadlock-free in both overlap and sequential modes.
Receiver-side transfer dependencies model *just-in-time* posting: the
host issues a recv only after launching the stage's preceding step
(Megatron's batched p2p at stage boundaries). Without them every recv
kernel would sit on its comm stream from t=0, busy-polling SMs through
phases it has no business in — a constant contention tax real schedules
do not pay.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.collectives.primitives import CollectiveKind
from repro.errors import ConfigurationError, PlanError
from repro.hw.system import NodeSpec
from repro.parallel.placement import stage_layer_ranges
from repro.parallel.plan import ExecutionPlan, PlanBuilder
from repro.parallel.schedules import (
    PipelineSchedule,
    ScheduleStep,
    StepPhase,
    build_order,
    validate_order,
)
from repro.sim.task import COMPUTE_STREAM
from repro.workloads.kernels import KernelSpec
from repro.workloads.spec import ModelSpec
from repro.workloads.transformer import (
    TrainingShape,
    build_head_backward,
    build_head_forward,
    build_layer_backward,
    build_layer_forward,
    build_optimizer_kernels,
)

#: Default microbatch size: small fixed microbatches mean the number of
#: in-flight microbatches grows with batch size, which is what makes the
#: overlapped fraction (and the slowdown) grow with batch size under
#: pipeline parallelism — the trend of Fig. 4.
DEFAULT_MICROBATCH = 4


def default_num_microbatches(batch_size: int, microbatch_size: int) -> int:
    """Number of microbatches for a batch (ceil division)."""
    return math.ceil(batch_size / microbatch_size)


def build_pipeline_plan(
    node: NodeSpec,
    model: ModelSpec,
    shape: TrainingShape,
    overlap: bool = True,
    microbatch_size: Optional[int] = None,
    schedule: "str | PipelineSchedule" = PipelineSchedule.GPIPE,
) -> ExecutionPlan:
    """Build one pipeline-parallel training iteration."""
    num_stages = node.num_gpus
    if num_stages < 2:
        raise ConfigurationError("pipeline parallelism needs >= 2 stages")
    if model.num_layers < num_stages:
        raise ConfigurationError(
            f"{model.name} has fewer layers than stages ({num_stages})"
        )
    if microbatch_size is None:
        microbatch_size = min(DEFAULT_MICROBATCH, shape.batch_size)
    if microbatch_size < 1 or microbatch_size > shape.batch_size:
        raise ConfigurationError(
            "microbatch_size must be in [1, batch_size]"
        )
    schedule = PipelineSchedule.parse(schedule)

    num_micro = default_num_microbatches(shape.batch_size, microbatch_size)
    micro_shape = shape.with_batch(microbatch_size)
    stages = stage_layer_ranges(model.num_layers, num_stages)
    elt = shape.path.precision.bytes_per_element
    act_bytes = float(microbatch_size) * shape.seq_len * model.hidden_dim * elt

    fwd_stream = "comm_fwd" if overlap else COMPUTE_STREAM
    bwd_stream = "comm_bwd" if overlap else COMPUTE_STREAM

    mode = "overlap" if overlap else "sequential"
    builder = PlanBuilder(
        name=f"pp-{model.name}-b{shape.batch_size}-{schedule.value}-{mode}"
    )
    builder.metadata.update(
        {
            "strategy": "pipeline",
            "overlap": overlap,
            "schedule": schedule.value,
            "model": model.name,
            "batch_size": shape.batch_size,
            "microbatch_size": microbatch_size,
            "num_microbatches": num_micro,
            "world_size": num_stages,
            "activation_payload_bytes": act_bytes,
        }
    )

    head_fwd = build_head_forward(model, micro_shape)
    embed_kernel, lm_head_kernel = head_fwd[0], head_fwd[1]
    head_bwd_kernels = build_head_backward(model, micro_shape)

    def forward_kernels(stage: int) -> Tuple[KernelSpec, ...]:
        kernels: List[KernelSpec] = []
        if stage == 0:
            kernels.append(embed_kernel)
        for layer in stages[stage]:
            kernels.extend(build_layer_forward(model, micro_shape, layer))
        if stage == num_stages - 1:
            kernels.append(lm_head_kernel)
        return tuple(kernels)

    def backward_kernels(stage: int) -> Tuple[KernelSpec, ...]:
        kernels: List[KernelSpec] = []
        if stage == num_stages - 1:
            kernels.extend(head_bwd_kernels)
        for layer in reversed(list(stages[stage])):
            kernels.extend(build_layer_backward(model, micro_shape, layer))
        return tuple(kernels)

    # Every microbatch of a stage runs the same kernels: build each
    # stage's chains once per plan, so the builder resolves each one
    # once and re-emits it per microbatch.
    stage_forward = [forward_kernels(stage) for stage in range(num_stages)]
    stage_backward = [backward_kernels(stage) for stage in range(num_stages)]

    orders: Dict[int, List[ScheduleStep]] = {}
    for stage in range(num_stages):
        order = build_order(schedule, num_stages, num_micro, stage)
        validate_order(order, num_micro)
        orders[stage] = order

    fwd_last: List[Dict[int, int]] = [dict() for _ in range(num_stages)]
    bwd_last: List[Dict[int, int]] = [dict() for _ in range(num_stages)]
    #: JIT anchor: the last compute task emitted for each stage.
    last_step_task: List[Optional[int]] = [None] * num_stages
    pointers = [0] * num_stages
    #: Transfers whose send side is emitted, awaiting their receiver:
    #: (receiver_stage, micro) -> CollectiveOp.
    pending_fwd: Dict[int, Dict[int, object]] = {
        s: {} for s in range(num_stages)
    }
    pending_bwd: Dict[int, Dict[int, object]] = {
        s: {} for s in range(num_stages)
    }

    def _forward_ready(stage: int, micro: int) -> bool:
        if stage == 0:
            return True
        return (
            micro in pending_fwd[stage]
            or (stage, StepPhase.FORWARD, micro) in prefetched_recv
        )

    def _backward_ready(stage: int, micro: int) -> bool:
        if micro not in fwd_last[stage]:
            return False
        if stage == num_stages - 1:
            return True
        return (
            micro in pending_bwd[stage]
            or (stage, StepPhase.BACKWARD, micro) in prefetched_recv
        )

    def _recv_deps(stage: int) -> List[int]:
        anchor = last_step_task[stage]
        return [anchor] if anchor is not None else []

    #: Recvs posted ahead of a send (Megatron's fused
    #: send_backward_recv_forward / send_forward_recv_backward):
    #: (stage, phase, micro) -> recv task id.
    prefetched_recv: Dict[object, int] = {}

    def _emit_recv(stage: int, step: ScheduleStep) -> int:
        if step.phase is StepPhase.FORWARD:
            op = pending_fwd[stage].pop(step.microbatch)
            stream, phase = fwd_stream, "forward"
        else:
            op = pending_bwd[stage].pop(step.microbatch)
            stream, phase = bwd_stream, "backward"
        return builder.add_collective_rank(
            op,
            stage,
            deps=_recv_deps(stage),
            stream=stream,
            phase=phase,
            label=f"recv.{op.key.rsplit('/', 1)[1]}",
        )

    def _prefetch_next_recv(stage: int) -> None:
        """Post the next step's recv before this step's send.

        Blocking p2p on a single stream deadlocks 1F1B at steady state
        (two adjacent stages each head-of-line blocked on a send to the
        other); Megatron's fused paired p2p calls post the recv
        together with the send. Posting the recv first reproduces that
        pairing under stream semantics.
        """
        nxt = pointers[stage] + 1
        if nxt >= len(orders[stage]):
            return
        step = orders[stage][nxt]
        key = (stage, step.phase, step.microbatch)
        if key in prefetched_recv:
            return
        if step.phase is StepPhase.FORWARD:
            available = stage > 0 and step.microbatch in pending_fwd[stage]
        else:
            available = (
                stage < num_stages - 1
                and step.microbatch in pending_bwd[stage]
            )
        if available:
            prefetched_recv[key] = _emit_recv(stage, step)

    def _consume_recv(stage: int, step: ScheduleStep) -> int:
        key = (stage, step.phase, step.microbatch)
        if key in prefetched_recv:
            return prefetched_recv.pop(key)
        return _emit_recv(stage, step)

    def _emit_forward(stage: int, micro: int) -> None:
        step = ScheduleStep(StepPhase.FORWARD, micro)
        deps: List[int] = []
        if stage > 0:
            # The matching send was enqueued when the upstream stage
            # produced the activations; enqueue our recv just-in-time.
            deps = [_consume_recv(stage, step)]
        ids = builder.add_chain(
            stage, stage_forward[stage], deps, phase="forward"
        )
        fwd_last[stage][micro] = ids[-1]
        last_step_task[stage] = ids[-1]
        if stage < num_stages - 1:
            # Send immediately after the producing compute — the host
            # enqueue order of Megatron's p2p calls — pairing it with
            # the next step's recv (fused p2p, see _prefetch_next_recv).
            _prefetch_next_recv(stage)
            op = builder.begin_collective(
                CollectiveKind.SEND_RECV,
                act_bytes,
                [stage, stage + 1],
                label=f"act.m{micro}.s{stage}to{stage + 1}",
            )
            builder.add_collective_rank(
                op,
                stage,
                deps=[ids[-1]],
                stream=fwd_stream,
                phase="forward",
                label=f"send.act.m{micro}.s{stage}to{stage + 1}",
            )
            pending_fwd[stage + 1][micro] = op

    def _emit_backward(stage: int, micro: int) -> None:
        step = ScheduleStep(StepPhase.BACKWARD, micro)
        deps: List[int] = [fwd_last[stage][micro]]
        if stage < num_stages - 1:
            deps.append(_consume_recv(stage, step))
        ids = builder.add_chain(
            stage, stage_backward[stage], deps, phase="backward"
        )
        bwd_last[stage][micro] = ids[-1]
        last_step_task[stage] = ids[-1]
        if stage > 0:
            _prefetch_next_recv(stage)
            op = builder.begin_collective(
                CollectiveKind.SEND_RECV,
                act_bytes,
                [stage, stage - 1],
                label=f"grad.m{micro}.s{stage}to{stage - 1}",
            )
            builder.add_collective_rank(
                op,
                stage,
                deps=[ids[-1]],
                stream=bwd_stream,
                phase="backward",
                label=f"send.grad.m{micro}.s{stage}to{stage - 1}",
            )
            pending_bwd[stage - 1][micro] = op

    # Lockstep emission: round-robin sweeps advancing every stage by at
    # most ONE ready step. One-step sweeps matter: they interleave the
    # emission across stages the same way the pipeline actually
    # executes, so each comm stream's program order (insertion order)
    # matches its execution order. Letting a stage drain its whole
    # schedule at once would enqueue all of a stage's recvs before any
    # of its sends, head-of-line-blocking the fabric. Terminates because
    # both schedules are causal.
    remaining = sum(len(order) for order in orders.values())
    while remaining:
        progressed = False
        for stage in range(num_stages):
            if pointers[stage] >= len(orders[stage]):
                continue
            step = orders[stage][pointers[stage]]
            if step.phase is StepPhase.FORWARD:
                if not _forward_ready(stage, step.microbatch):
                    continue
                _emit_forward(stage, step.microbatch)
            else:
                if not _backward_ready(stage, step.microbatch):
                    continue
                _emit_backward(stage, step.microbatch)
            pointers[stage] += 1
            remaining -= 1
            progressed = True
        if not progressed:  # pragma: no cover - schedules are causal
            raise PlanError(
                f"pipeline schedule stalled with {remaining} steps left"
            )

    # ------- tied-embedding gradient sync (Megatron semantics) --------
    # The input embedding (stage 0) and the LM head (last stage) share
    # weights; their gradients are all-reduced between the two stages
    # after backward. This is a large collective (vocab x hidden) that
    # overlaps the stages' remaining backward work.
    embed_grad_bytes = float(model.embedding_params) * elt
    last_stage = num_stages - 1

    def _final_backward(stage: int) -> int:
        micro = next(
            s.microbatch
            for s in reversed(orders[stage])
            if s.phase is StepPhase.BACKWARD
        )
        return bwd_last[stage][micro]

    tie_deps = {
        0: [_final_backward(0)],
        last_stage: [_final_backward(last_stage)],
    }
    embed_sync = builder.add_collective(
        CollectiveKind.ALL_REDUCE,
        embed_grad_bytes,
        [0, last_stage],
        deps_by_gpu=tie_deps,
        stream=bwd_stream,
        phase="backward",
        label="ar.tied_embed",
    )

    # ---------------- optimizer ----------------
    for stage in range(num_stages):
        stage_layers = len(stages[stage])
        stage_params = float(model.params_per_layer) * stage_layers
        if stage in (0, num_stages - 1):
            stage_params += model.embedding_params
        opt = tuple(build_optimizer_kernels(model, shape, params=stage_params))
        opt_deps = [bwd_last[stage][micro] for micro in range(num_micro)]
        if stage in embed_sync:
            opt_deps.append(embed_sync[stage])
        builder.add_chain(stage, opt, opt_deps, phase="optimizer")

    return builder.build()
