"""Tests for FSDP gradient accumulation (deferred reduce-scatter)."""

import pytest

from repro.collectives.primitives import CollectiveKind
from repro.errors import ConfigurationError
from repro.hw.system import make_node
from repro.parallel.fsdp import build_fsdp_plan
from repro.sim.config import SimConfig
from repro.sim.engine import simulate
from repro.sim.task import CommTask
from repro.workloads.registry import get_model
from repro.workloads.transformer import TrainingShape

NODE = make_node("A100", 4)
MODEL = get_model("gpt3-xl")
SHAPE = TrainingShape(batch_size=32)


def _collectives(plan, kind, gpu=0):
    return [
        t
        for t in plan.tasks
        if isinstance(t, CommTask) and t.op.kind is kind and t.gpu == gpu
    ]


def test_rejects_bad_accum_steps():
    with pytest.raises(ConfigurationError):
        build_fsdp_plan(NODE, MODEL, SHAPE, grad_accum_steps=0)
    # More steps than per-GPU samples cannot be split.
    with pytest.raises(ConfigurationError, match="exceeds"):
        build_fsdp_plan(
            NODE, MODEL, TrainingShape(batch_size=4), grad_accum_steps=2
        )


def test_reduce_scatters_emitted_once_regardless_of_steps():
    plain = build_fsdp_plan(NODE, MODEL, SHAPE, grad_accum_steps=1)
    accum = build_fsdp_plan(NODE, MODEL, SHAPE, grad_accum_steps=4)
    n_plain = len(_collectives(plain, CollectiveKind.REDUCE_SCATTER))
    n_accum = len(_collectives(accum, CollectiveKind.REDUCE_SCATTER))
    assert n_plain == n_accum == MODEL.num_layers + 1  # layers + head


def test_allgathers_scale_with_steps():
    plain = build_fsdp_plan(NODE, MODEL, SHAPE, grad_accum_steps=1)
    accum = build_fsdp_plan(NODE, MODEL, SHAPE, grad_accum_steps=4)
    n_plain = len(_collectives(plain, CollectiveKind.ALL_GATHER))
    n_accum = len(_collectives(accum, CollectiveKind.ALL_GATHER))
    assert n_accum == 4 * n_plain


def test_compute_flops_preserved():
    from repro.sim.task import ComputeTask

    def flops(plan):
        return sum(
            t.kernel.flops
            for t in plan.tasks
            if isinstance(t, ComputeTask) and t.gpu == 0
            and t.phase != "optimizer"
        )

    plain = build_fsdp_plan(NODE, MODEL, SHAPE, grad_accum_steps=1)
    accum = build_fsdp_plan(NODE, MODEL, SHAPE, grad_accum_steps=4)
    assert flops(accum) == pytest.approx(flops(plain), rel=0.01)


def test_accumulation_beats_separate_small_iterations():
    """The paper's mitigation claim: accumulating K micro-steps
    communicates gradients once instead of K times."""
    config = SimConfig(trace_power=False, jitter_sigma=0.0)
    accum = build_fsdp_plan(NODE, MODEL, SHAPE, grad_accum_steps=4)
    t_accum = simulate(NODE, accum, config).end_time_s
    small = build_fsdp_plan(
        NODE, MODEL, TrainingShape(batch_size=8), grad_accum_steps=1
    )
    t_small = simulate(NODE, small, config).end_time_s
    assert t_accum < 4 * t_small


def test_metadata_records_accumulation():
    plan = build_fsdp_plan(NODE, MODEL, SHAPE, grad_accum_steps=2)
    assert plan.metadata["grad_accum_steps"] == 2


def test_simulates_cleanly_both_modes():
    for overlap in (True, False):
        plan = build_fsdp_plan(
            NODE, MODEL, SHAPE, overlap=overlap, grad_accum_steps=2
        )
        result = simulate(NODE, plan, SimConfig(trace_power=False))
        assert len(result.records) == len(plan.tasks)
