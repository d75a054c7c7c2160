"""Tests for pipeline microbatch schedules (GPipe and 1F1B)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.hw.system import make_node
from repro.parallel.pipeline import build_pipeline_plan
from repro.parallel.schedules import (
    PipelineSchedule,
    ScheduleStep,
    StepPhase,
    build_order,
    gpipe_order,
    max_live_microbatches,
    one_f_one_b_order,
    validate_order,
)
from repro.sim.config import SimConfig
from repro.sim.engine import simulate
from repro.workloads.registry import get_model
from repro.workloads.transformer import TrainingShape


def test_parse_accepts_names_and_enums():
    assert PipelineSchedule.parse("gpipe") is PipelineSchedule.GPIPE
    assert PipelineSchedule.parse("1F1B") is PipelineSchedule.ONE_F_ONE_B
    assert (
        PipelineSchedule.parse(PipelineSchedule.GPIPE)
        is PipelineSchedule.GPIPE
    )


def test_parse_rejects_unknown():
    with pytest.raises(ConfigurationError, match="unknown pipeline"):
        PipelineSchedule.parse("interleaved-virtual")


def test_gpipe_all_forwards_then_lifo_backwards():
    steps = gpipe_order(4, 3, stage=1)
    phases = [s.phase for s in steps]
    assert phases == [StepPhase.FORWARD] * 3 + [StepPhase.BACKWARD] * 3
    bwd = [s.microbatch for s in steps if s.phase is StepPhase.BACKWARD]
    assert bwd == [2, 1, 0]


def test_1f1b_warmup_depends_on_stage():
    # Stage 0 of 4 warms up with 3 forwards; the last stage with none.
    first = one_f_one_b_order(4, 8, stage=0)
    last = one_f_one_b_order(4, 8, stage=3)
    warmup_first = 0
    for step in first:
        if step.phase is StepPhase.BACKWARD:
            break
        warmup_first += 1
    assert warmup_first == 4  # 3 warmup + the steady step's forward
    assert last[0].phase is StepPhase.FORWARD
    assert last[1].phase is StepPhase.BACKWARD


def test_1f1b_backwards_in_fifo_order():
    steps = one_f_one_b_order(4, 6, stage=2)
    bwd = [s.microbatch for s in steps if s.phase is StepPhase.BACKWARD]
    assert bwd == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("schedule", ["gpipe", "1f1b"])
@pytest.mark.parametrize("stage", [0, 1, 3])
@pytest.mark.parametrize("num_micro", [1, 2, 8])
def test_orders_always_valid(schedule, stage, num_micro):
    steps = build_order(schedule, 4, num_micro, stage)
    validate_order(steps, num_micro)
    assert len(steps) == 2 * num_micro


def test_validate_order_catches_missing_backward():
    with pytest.raises(ConfigurationError, match="cover"):
        validate_order([ScheduleStep(StepPhase.FORWARD, 0)], 1)


def test_validate_order_catches_backward_before_forward():
    steps = [
        ScheduleStep(StepPhase.BACKWARD, 0),
        ScheduleStep(StepPhase.FORWARD, 0),
    ]
    with pytest.raises(ConfigurationError, match="before forward"):
        validate_order(steps, 1)


def test_live_microbatches_bound():
    assert max_live_microbatches("gpipe", 4, 16) == 16
    assert max_live_microbatches("1f1b", 4, 16) == 4
    assert max_live_microbatches("1f1b", 4, 2) == 2


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=7),
)
def test_1f1b_causality_property(num_stages, num_micro, stage):
    if stage >= num_stages:
        stage = num_stages - 1
    steps = one_f_one_b_order(num_stages, num_micro, stage)
    validate_order(steps, num_micro)
    # Forwards appear in ascending microbatch order.
    fwd = [s.microbatch for s in steps if s.phase is StepPhase.FORWARD]
    assert fwd == sorted(fwd)


NODE = make_node("A100", 4)
MODEL = get_model("gpt3-xl")
SHAPE = TrainingShape(batch_size=32)


@pytest.mark.parametrize("schedule", ["gpipe", "1f1b"])
@pytest.mark.parametrize("overlap", [True, False])
def test_plans_simulate_deadlock_free(schedule, overlap):
    plan = build_pipeline_plan(
        NODE, MODEL, SHAPE, overlap=overlap, schedule=schedule
    )
    result = simulate(NODE, plan, SimConfig(trace_power=False))
    assert len(result.records) == len(plan.tasks)


def test_both_schedules_same_arithmetic():
    gpipe = build_pipeline_plan(NODE, MODEL, SHAPE, schedule="gpipe")
    f1b1 = build_pipeline_plan(NODE, MODEL, SHAPE, schedule="1f1b")
    from repro.sim.task import ComputeTask

    def flops(plan):
        return sum(
            t.kernel.flops
            for t in plan.tasks
            if isinstance(t, ComputeTask)
        )

    assert flops(gpipe) == pytest.approx(flops(f1b1))


def test_schedules_comparable_wall_clock():
    config = SimConfig(trace_power=False, jitter_sigma=0.0)
    t_gpipe = simulate(
        NODE,
        build_pipeline_plan(NODE, MODEL, SHAPE, schedule="gpipe"),
        config,
    ).end_time_s
    t_1f1b = simulate(
        NODE,
        build_pipeline_plan(NODE, MODEL, SHAPE, schedule="1f1b"),
        config,
    ).end_time_s
    # Same flush bubble, so within a few percent of each other.
    assert t_1f1b == pytest.approx(t_gpipe, rel=0.05)


def test_1f1b_reduces_activation_footprint():
    from repro.core.feasibility import check_feasibility

    gpipe = check_feasibility(
        NODE, MODEL, SHAPE, "pipeline", pipeline_schedule="gpipe"
    )
    f1b1 = check_feasibility(
        NODE, MODEL, SHAPE, "pipeline", pipeline_schedule="1f1b"
    )
    assert (
        f1b1.footprint.activation_bytes < gpipe.footprint.activation_bytes
    )
