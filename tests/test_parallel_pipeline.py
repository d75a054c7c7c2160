"""Tests for the pipeline-parallel plan builder."""

import pytest

from repro.collectives.primitives import CollectiveKind
from repro.errors import ConfigurationError
from repro.hw.system import make_node
from repro.parallel.pipeline import (
    build_pipeline_plan,
    default_num_microbatches,
)
from repro.parallel.placement import balanced_partition, stage_layer_ranges
from repro.sim.config import SimConfig
from repro.sim.engine import simulate
from repro.sim.task import COMPUTE_STREAM, CommTask, ComputeTask
from repro.workloads.registry import get_model
from repro.workloads.transformer import TrainingShape

NODE = make_node("A100", 4)
MODEL = get_model("gpt3-xl")
SHAPE = TrainingShape(batch_size=16)


def test_microbatch_count_is_ceiling_division():
    assert default_num_microbatches(16, 4) == 4
    assert default_num_microbatches(17, 4) == 5
    assert default_num_microbatches(3, 4) == 1


def test_requires_two_stages():
    with pytest.raises(ConfigurationError, match="2 stages"):
        build_pipeline_plan(make_node("A100", 1), MODEL, SHAPE)


def test_rejects_more_stages_than_layers():
    tiny = get_model("gpt3-xl")
    shape = TrainingShape(batch_size=8)
    with pytest.raises(ConfigurationError, match="fewer layers"):
        build_pipeline_plan(
            make_node("A100", 32), tiny, shape
        )


def test_rejects_bad_microbatch_size():
    with pytest.raises(ConfigurationError, match="microbatch_size"):
        build_pipeline_plan(NODE, MODEL, SHAPE, microbatch_size=100)


def test_stage_ranges_cover_all_layers():
    ranges = stage_layer_ranges(24, 4)
    covered = [layer for r in ranges for layer in r]
    assert covered == list(range(24))


def test_balanced_partition_minimizes_bottleneck():
    # Equal costs split evenly.
    parts = balanced_partition([1.0] * 8, 4)
    sizes = [j - i for i, j in parts]
    assert sizes == [2, 2, 2, 2]


def test_balanced_partition_handles_skew():
    # One huge layer should sit alone in its part.
    parts = balanced_partition([1, 1, 1, 10, 1, 1], 3)
    spans = [(i, j) for i, j in parts]
    big_part = [s for s in spans if s[0] <= 3 < s[1]]
    assert big_part, "layer 3 must be covered"


def test_transfers_are_point_to_point():
    plan = build_pipeline_plan(NODE, MODEL, SHAPE)
    p2p = [
        t
        for t in plan.tasks
        if isinstance(t, CommTask) and t.op.kind is CollectiveKind.SEND_RECV
    ]
    assert p2p
    assert all(t.op.world_size == 2 for t in p2p)


def test_transfer_count_matches_schedule():
    plan = build_pipeline_plan(NODE, MODEL, SHAPE, microbatch_size=4)
    num_micro = default_num_microbatches(SHAPE.batch_size, 4)
    keys = {
        t.op.key
        for t in plan.tasks
        if isinstance(t, CommTask) and t.op.kind is CollectiveKind.SEND_RECV
    }
    boundaries = NODE.num_gpus - 1
    # Forward + backward transfers across each boundary per microbatch.
    assert len(keys) == 2 * boundaries * num_micro


def test_forward_recvs_posted_just_in_time():
    """Receiver-side recvs depend on the receiver's previous microbatch
    (JIT posting), so pending recv kernels don't busy-poll through
    unrelated phases."""
    plan = build_pipeline_plan(NODE, MODEL, SHAPE, microbatch_size=4)
    fwd_recvs = [
        t
        for t in plan.tasks
        if isinstance(t, CommTask)
        and t.phase == "forward"
        and t.op.kind is CollectiveKind.SEND_RECV
        and t.gpu == t.op.participants[1]  # receiver side
    ]
    later_micro = [t for t in fwd_recvs if ".m0." not in t.op.key]
    assert later_micro
    assert all(t.deps for t in later_micro), (
        "every non-first forward recv must carry a JIT dep"
    )


def test_backward_recvs_never_posted_before_forward_done():
    plan = build_pipeline_plan(NODE, MODEL, SHAPE, microbatch_size=4)
    bwd_recvs = [
        t
        for t in plan.tasks
        if isinstance(t, CommTask)
        and t.phase == "backward"
        and t.op.kind is CollectiveKind.SEND_RECV
        and t.gpu == min(t.op.participants)  # receiver is upstream stage
    ]
    assert bwd_recvs
    assert all(t.deps for t in bwd_recvs)


def test_tied_embedding_allreduce_present():
    plan = build_pipeline_plan(NODE, MODEL, SHAPE)
    tied = [
        t
        for t in plan.tasks
        if isinstance(t, CommTask) and "tied_embed" in t.op.key
    ]
    assert len(tied) == 2
    assert {t.gpu for t in tied} == {0, NODE.num_gpus - 1}


def test_sequential_mode_single_stream():
    plan = build_pipeline_plan(NODE, MODEL, SHAPE, overlap=False)
    assert {t.stream for t in plan.tasks} == {COMPUTE_STREAM}


def test_both_modes_simulate_cleanly():
    for overlap in (True, False):
        plan = build_pipeline_plan(NODE, MODEL, SHAPE, overlap=overlap)
        result = simulate(NODE, plan, SimConfig(trace_power=False))
        assert len(result.records) == len(plan.tasks)


def test_overlap_not_slower_than_sequential():
    config = SimConfig(trace_power=False, jitter_sigma=0.0)
    t_ov = simulate(
        NODE, build_pipeline_plan(NODE, MODEL, SHAPE, overlap=True), config
    ).end_time_s
    t_seq = simulate(
        NODE,
        build_pipeline_plan(NODE, MODEL, SHAPE, overlap=False),
        config,
    ).end_time_s
    assert t_ov <= t_seq * 1.005


def test_smaller_microbatches_mean_more_microbatches():
    plan2 = build_pipeline_plan(NODE, MODEL, SHAPE, microbatch_size=2)
    plan8 = build_pipeline_plan(NODE, MODEL, SHAPE, microbatch_size=8)
    assert (
        plan2.metadata["num_microbatches"] > plan8.metadata["num_microbatches"]
    )


def test_first_stage_carries_embedding_compute():
    plan = build_pipeline_plan(NODE, MODEL, SHAPE)
    stage0 = [
        t.kernel.name
        for t in plan.tasks
        if t.gpu == 0 and isinstance(t, ComputeTask)
    ]
    last = [
        t.kernel.name
        for t in plan.tasks
        if t.gpu == NODE.num_gpus - 1 and isinstance(t, ComputeTask)
    ]
    assert any("embed" in n for n in stage0)
    assert any("lm_head" in n for n in last)
    assert not any("lm_head" in n for n in stage0)
