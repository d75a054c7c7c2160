"""Tests for the DDP baseline plan builder."""

import pytest

from repro.collectives.primitives import CollectiveKind
from repro.errors import ConfigurationError
from repro.hw.system import make_node
from repro.parallel.ddp import build_ddp_plan
from repro.parallel.strategy import Strategy, build_plan
from repro.sim.config import SimConfig
from repro.sim.engine import simulate
from repro.sim.task import CommTask
from repro.workloads.registry import get_model
from repro.workloads.transformer import TrainingShape

NODE = make_node("A100", 4)
MODEL = get_model("gpt3-xl")
SHAPE = TrainingShape(batch_size=16)


def test_requires_two_gpus():
    with pytest.raises(ConfigurationError, match="two GPUs"):
        build_ddp_plan(make_node("A100", 1), MODEL, SHAPE)


def test_gradient_sync_is_all_reduce_only():
    plan = build_ddp_plan(NODE, MODEL, SHAPE)
    kinds = {t.op.kind for t in plan.tasks if isinstance(t, CommTask)}
    assert kinds == {CollectiveKind.ALL_REDUCE}


def test_allreduce_bytes_cover_all_gradients():
    plan = build_ddp_plan(NODE, MODEL, SHAPE)
    seen = {}
    for t in plan.tasks:
        if isinstance(t, CommTask):
            seen[t.op.key] = t.op.payload_bytes
    total = sum(seen.values())
    elt = SHAPE.path.precision.bytes_per_element
    assert total == pytest.approx(float(MODEL.num_params) * elt, rel=0.01)


def test_batch_splits_across_ranks():
    plan = build_ddp_plan(NODE, MODEL, SHAPE)
    assert plan.metadata["per_gpu_batch"] == 4


def test_overlap_beats_sequential():
    config = SimConfig(trace_power=False, jitter_sigma=0.0)
    t_ov = simulate(
        NODE, build_ddp_plan(NODE, MODEL, SHAPE, overlap=True), config
    ).end_time_s
    t_seq = simulate(
        NODE, build_ddp_plan(NODE, MODEL, SHAPE, overlap=False), config
    ).end_time_s
    assert t_ov < t_seq


def test_strategy_parse_accepts_strings_and_enums():
    assert Strategy.parse("fsdp") is Strategy.FSDP
    assert Strategy.parse("PIPELINE") is Strategy.PIPELINE
    assert Strategy.parse(Strategy.DDP) is Strategy.DDP
    assert Strategy.parse("tensor") is Strategy.TENSOR


def test_strategy_parse_rejects_unknown():
    with pytest.raises(ConfigurationError, match="unknown strategy"):
        Strategy.parse("3d-parallel")


@pytest.mark.parametrize("strategy", ["fsdp", "pipeline", "ddp", "tensor"])
def test_build_plan_dispatches_every_strategy(strategy):
    plan = build_plan(NODE, MODEL, SHAPE, strategy)
    assert plan.metadata["strategy"] == strategy
    assert plan.num_tasks > 0
