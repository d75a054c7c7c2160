"""Tests for the expert-parallel (MoE) plan builder."""

import pytest

from repro.collectives.primitives import CollectiveKind
from repro.errors import ConfigurationError
from repro.hw.system import make_node
from repro.parallel.expert import build_expert_parallel_plan
from repro.sim.config import SimConfig
from repro.sim.engine import simulate
from repro.sim.task import COMPUTE_STREAM, CommTask
from repro.workloads.moe import MoESpec
from repro.workloads.registry import get_model
from repro.workloads.transformer import TrainingShape

NODE = make_node("H100", 4)
SPEC = MoESpec(base=get_model("gpt3-xl"), num_experts=8, top_k=2)
SHAPE = TrainingShape(batch_size=16)


def test_requires_two_gpus():
    with pytest.raises(ConfigurationError, match="two GPUs"):
        build_expert_parallel_plan(make_node("H100", 1), SPEC, SHAPE)


def test_experts_must_shard_evenly():
    spec = MoESpec(base=get_model("gpt3-xl"), num_experts=6)
    with pytest.raises(ConfigurationError, match="shard evenly"):
        build_expert_parallel_plan(NODE, spec, SHAPE)


def test_rejects_zero_chunks():
    with pytest.raises(ConfigurationError, match="num_chunks"):
        build_expert_parallel_plan(NODE, SPEC, SHAPE, num_chunks=0)


def test_alltoall_pairs_per_moe_layer():
    plan = build_expert_parallel_plan(NODE, SPEC, SHAPE, num_chunks=2)
    a2a = {
        t.op.key
        for t in plan.tasks
        if isinstance(t, CommTask) and t.op.kind is CollectiveKind.ALL_TO_ALL
    }
    # dispatch + combine, per chunk, per MoE layer, forward + backward.
    expected = SPEC.num_moe_layers * 2 * 2 * 2
    assert len(a2a) == expected


def test_chunking_splits_payload():
    plan1 = build_expert_parallel_plan(NODE, SPEC, SHAPE, num_chunks=1)
    plan4 = build_expert_parallel_plan(NODE, SPEC, SHAPE, num_chunks=4)

    def payloads(plan):
        return {
            t.op.payload_bytes
            for t in plan.tasks
            if isinstance(t, CommTask)
            and t.op.kind is CollectiveKind.ALL_TO_ALL
        }

    (p1,) = payloads(plan1)
    (p4,) = payloads(plan4)
    assert p4 == pytest.approx(p1 / 4)


def test_sequential_collapses_to_one_chunk():
    plan = build_expert_parallel_plan(
        NODE, SPEC, SHAPE, overlap=False, num_chunks=4
    )
    assert plan.metadata["num_chunks"] == 1
    assert {t.stream for t in plan.tasks} == {COMPUTE_STREAM}


def test_dense_gradients_all_reduced():
    plan = build_expert_parallel_plan(NODE, SPEC, SHAPE)
    ars = [
        t
        for t in plan.tasks
        if isinstance(t, CommTask) and t.op.kind is CollectiveKind.ALL_REDUCE
    ]
    assert ars, "dense backbone gradients need an all-reduce"


def test_simulates_in_both_modes():
    for overlap in (True, False):
        plan = build_expert_parallel_plan(NODE, SPEC, SHAPE, overlap=overlap)
        result = simulate(NODE, plan, SimConfig(trace_power=False))
        assert len(result.records) == len(plan.tasks)


def test_chunked_overlap_not_slower():
    config = SimConfig(trace_power=False, jitter_sigma=0.0)
    t_ov = simulate(
        NODE,
        build_expert_parallel_plan(NODE, SPEC, SHAPE, overlap=True),
        config,
    ).end_time_s
    t_seq = simulate(
        NODE,
        build_expert_parallel_plan(NODE, SPEC, SHAPE, overlap=False),
        config,
    ).end_time_s
    assert t_ov <= t_seq * 1.01
