"""Tests for the tensor-parallel (Megatron) plan builder."""

import pytest

from repro.collectives.primitives import CollectiveKind
from repro.errors import ConfigurationError
from repro.hw.system import make_node
from repro.parallel.tensor_parallel import (
    build_tensor_parallel_plan,
    shard_layer_kernels,
)
from repro.sim.config import SimConfig
from repro.sim.engine import simulate
from repro.sim.task import COMM_STREAM, COMPUTE_STREAM, CommTask, ComputeTask
from repro.workloads.kernels import KernelKind
from repro.workloads.registry import get_model
from repro.workloads.transformer import TrainingShape, build_layer_forward

NODE = make_node("H100", 4)
MODEL = get_model("gpt3-xl")
SHAPE = TrainingShape(batch_size=8)


def test_requires_two_gpus():
    with pytest.raises(ConfigurationError, match="two GPUs"):
        build_tensor_parallel_plan(make_node("H100", 1), MODEL, SHAPE)


def test_heads_must_shard_evenly():
    model = get_model("gpt3-13b")  # 40 heads
    with pytest.raises(ConfigurationError, match="heads"):
        build_tensor_parallel_plan(make_node("H100", 3), model, SHAPE)


def test_shard_scales_gemms_only():
    kernels = build_layer_forward(MODEL, SHAPE, 0)
    sharded = shard_layer_kernels(kernels, 4)
    for full, part in zip(kernels, sharded):
        if full.kind in (KernelKind.GEMM, KernelKind.ATTENTION):
            assert part.flops == pytest.approx(full.flops / 4)
        else:
            assert part.flops == full.flops


def test_shard_world_one_is_identity_flops():
    kernels = build_layer_forward(MODEL, SHAPE, 0)
    sharded = shard_layer_kernels(kernels, 1)
    assert [k.flops for k in sharded] == [k.flops for k in kernels]


def test_shard_rejects_bad_world():
    with pytest.raises(ConfigurationError):
        shard_layer_kernels(build_layer_forward(MODEL, SHAPE, 0), 0)


def test_two_forward_allreduces_per_layer():
    plan = build_tensor_parallel_plan(NODE, MODEL, SHAPE)
    fwd_ars = {
        t.op.key
        for t in plan.tasks
        if isinstance(t, CommTask)
        and t.phase == "forward"
        and t.op.kind is CollectiveKind.ALL_REDUCE
    }
    # Two per layer (attention + MLP) plus the LM-head sync.
    assert len(fwd_ars) == 2 * MODEL.num_layers + 1


def test_two_backward_allreduces_per_layer():
    plan = build_tensor_parallel_plan(NODE, MODEL, SHAPE)
    bwd_ars = {
        t.op.key
        for t in plan.tasks
        if isinstance(t, CommTask)
        and t.phase == "backward"
        and t.op.kind is CollectiveKind.ALL_REDUCE
    }
    assert len(bwd_ars) == 2 * MODEL.num_layers


def test_forward_allreduces_block_on_compute_stream():
    plan = build_tensor_parallel_plan(NODE, MODEL, SHAPE, overlap=True)
    fwd_comm_streams = {
        t.stream
        for t in plan.tasks
        if isinstance(t, CommTask) and t.phase == "forward"
    }
    assert fwd_comm_streams == {COMPUTE_STREAM}


def test_backward_allreduces_overlap_on_comm_stream():
    plan = build_tensor_parallel_plan(NODE, MODEL, SHAPE, overlap=True)
    bwd_comm_streams = {
        t.stream
        for t in plan.tasks
        if isinstance(t, CommTask) and t.phase == "backward"
    }
    assert bwd_comm_streams == {COMM_STREAM}


def test_all_gpus_symmetric():
    plan = build_tensor_parallel_plan(NODE, MODEL, SHAPE)
    counts = [
        sum(1 for t in plan.tasks if t.gpu == g)
        for g in range(NODE.num_gpus)
    ]
    assert len(set(counts)) == 1


def test_optimizer_updates_sharded_params():
    plan = build_tensor_parallel_plan(NODE, MODEL, SHAPE)
    opt = [
        t
        for t in plan.tasks
        if t.gpu == 0
        and isinstance(t, ComputeTask)
        and t.phase == "optimizer"
    ]
    assert opt
    # Adam touches 28 bytes/param; a 1/4 shard of the model.
    expected = 28.0 * MODEL.num_params / 4
    assert sum(t.kernel.bytes_moved for t in opt) == pytest.approx(expected)


def test_both_modes_simulate_and_overlap_wins():
    config = SimConfig(trace_power=False, jitter_sigma=0.0)
    t_ov = simulate(
        NODE,
        build_tensor_parallel_plan(NODE, MODEL, SHAPE, overlap=True),
        config,
    ).end_time_s
    t_seq = simulate(
        NODE,
        build_tensor_parallel_plan(NODE, MODEL, SHAPE, overlap=False),
        config,
    ).end_time_s
    assert 0 < t_ov <= t_seq


def test_metadata():
    plan = build_tensor_parallel_plan(NODE, MODEL, SHAPE)
    assert plan.metadata["strategy"] == "tensor"
    assert plan.metadata["world_size"] == 4
    assert plan.metadata["activation_payload_bytes"] > 0
