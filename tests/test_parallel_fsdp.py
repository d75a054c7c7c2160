"""Tests for the FSDP (ZeRO-3) plan builder."""

import pytest

from repro.collectives.primitives import CollectiveKind
from repro.errors import ConfigurationError
from repro.hw.system import make_node
from repro.parallel.fsdp import build_fsdp_plan
from repro.sim.config import SimConfig
from repro.sim.engine import simulate
from repro.sim.task import COMM_STREAM, COMPUTE_STREAM, CommTask, ComputeTask
from repro.workloads.registry import get_model
from repro.workloads.transformer import TrainingShape

NODE = make_node("A100", 4)
MODEL = get_model("gpt3-xl")
SHAPE = TrainingShape(batch_size=8)


@pytest.fixture(scope="module")
def overlap_plan():
    return build_fsdp_plan(NODE, MODEL, SHAPE, overlap=True)


@pytest.fixture(scope="module")
def sequential_plan():
    return build_fsdp_plan(NODE, MODEL, SHAPE, overlap=False)


def test_requires_at_least_two_gpus():
    with pytest.raises(ConfigurationError, match="two GPUs"):
        build_fsdp_plan(make_node("A100", 1), MODEL, SHAPE)


def test_every_gpu_gets_identical_task_counts(overlap_plan):
    counts = {
        g: len(overlap_plan.tasks_on(g)) for g in range(NODE.num_gpus)
    }
    assert len(set(counts.values())) == 1, counts


def test_collective_kinds_are_fsdp_specific(overlap_plan):
    kinds = {
        t.op.kind for t in overlap_plan.tasks if isinstance(t, CommTask)
    }
    assert CollectiveKind.ALL_GATHER in kinds
    assert CollectiveKind.REDUCE_SCATTER in kinds
    assert CollectiveKind.SEND_RECV not in kinds


def test_one_reduce_scatter_per_layer(overlap_plan):
    rs_keys = {
        t.op.key
        for t in overlap_plan.tasks
        if isinstance(t, CommTask)
        and t.op.kind is CollectiveKind.REDUCE_SCATTER
    }
    # One per decoder layer plus the embedding/head gradients.
    assert len(rs_keys) >= MODEL.num_layers


def test_forward_gathers_one_per_layer(overlap_plan):
    ag_keys = {
        t.op.key
        for t in overlap_plan.tasks
        if isinstance(t, CommTask)
        and t.op.kind is CollectiveKind.ALL_GATHER
        and t.phase == "forward"
    }
    # Per-layer parameter gathers (+ embedding); backward re-gathers are
    # a separate phase.
    assert len(ag_keys) >= MODEL.num_layers


def test_sequential_mode_uses_compute_stream_only(sequential_plan):
    streams = {t.stream for t in sequential_plan.tasks}
    assert streams == {COMPUTE_STREAM}


def test_overlap_mode_uses_comm_stream(overlap_plan):
    comm_streams = {
        t.stream for t in overlap_plan.tasks if isinstance(t, CommTask)
    }
    assert COMM_STREAM in comm_streams


def test_metadata_describes_plan(overlap_plan):
    md = overlap_plan.metadata
    assert md["strategy"] == "fsdp"
    assert md["overlap"] is True
    assert md["world_size"] == 4


def test_plans_simulate_without_deadlock(overlap_plan, sequential_plan):
    for plan in (overlap_plan, sequential_plan):
        result = simulate(NODE, plan, SimConfig(trace_power=False))
        assert result.end_time_s > 0
        assert len(result.records) == len(plan.tasks)


def test_overlap_beats_sequential_e2e(overlap_plan, sequential_plan):
    config = SimConfig(trace_power=False, jitter_sigma=0.0)
    t_overlap = simulate(NODE, overlap_plan, config).end_time_s
    t_seq = simulate(NODE, sequential_plan, config).end_time_s
    assert t_overlap < t_seq


def test_same_collective_payloads_both_modes(overlap_plan, sequential_plan):
    def payloads(plan):
        return sorted(
            t.op.payload_bytes
            for t in plan.tasks
            if isinstance(t, CommTask) and t.gpu == 0
        )

    assert payloads(overlap_plan) == payloads(sequential_plan)


def test_compute_kernels_identical_both_modes(overlap_plan, sequential_plan):
    def kernel_names(plan):
        return sorted(
            t.kernel.name
            for t in plan.tasks
            if isinstance(t, ComputeTask) and t.gpu == 0
        )

    assert kernel_names(overlap_plan) == kernel_names(sequential_plan)
