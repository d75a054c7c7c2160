"""Behavioral tests for the engine's contention and power knobs."""

import dataclasses

import pytest

from repro.hw.system import make_node
from repro.parallel.strategy import build_plan
from repro.sim.config import SimConfig
from repro.sim.engine import simulate
from repro.sim.task import TaskCategory
from repro.workloads.registry import get_model
from repro.workloads.transformer import TrainingShape

MODEL = get_model("gpt3-xl")
SHAPE = TrainingShape(batch_size=8)


def _plan(node, overlap=True):
    return build_plan(node, MODEL, SHAPE, "fsdp", overlap=overlap)


def test_ideal_mode_runs_kernels_at_isolated_speed():
    node = make_node("MI210", 4)
    plan = _plan(node)
    result = simulate(
        node,
        plan,
        SimConfig(contention_enabled=False, jitter_sigma=0.0),
    )
    for record in result.records:
        if record.category is TaskCategory.COMPUTE:
            assert record.duration_s == pytest.approx(
                record.isolated_duration_s, rel=1e-6
            )


def test_contention_slows_only_under_overlap():
    node = make_node("MI210", 4)
    config = SimConfig(jitter_sigma=0.0)
    contended = simulate(node, _plan(node), config)
    ideal = simulate(
        node,
        _plan(node),
        SimConfig(contention_enabled=False, jitter_sigma=0.0),
    )
    slow = contended.total_time(TaskCategory.COMPUTE)
    fast = ideal.total_time(TaskCategory.COMPUTE)
    assert slow > fast


def test_zero_stall_power_lowers_overlap_draw():
    base_node = make_node("MI210", 4)
    no_stall = make_node(
        "MI210",
        4,
        calibration=dataclasses.replace(
            base_node.calibration, stall_power_frac=0.0
        ),
    )
    config = SimConfig(jitter_sigma=0.0)
    e_base = simulate(base_node, _plan(base_node), config).energy_j()
    e_no_stall = simulate(no_stall, _plan(no_stall), config).energy_j()
    assert e_no_stall < e_base


def test_frequency_cap_slows_compute_proportionally():
    node = make_node("A100", 4)
    full = simulate(node, _plan(node), SimConfig(jitter_sigma=0.0))
    half = simulate(
        node,
        _plan(node),
        SimConfig(jitter_sigma=0.0, max_clock_frac=0.5),
    )
    ratio = half.end_time_s / full.end_time_s
    # Compute-bound work doubles; bandwidth-bound and comm work does
    # not, so the iteration stretches by a factor in (1, 2].
    assert 1.2 < ratio <= 2.05


def test_ideal_mode_disables_the_governor():
    # The governor is tied to contention modelling: the ideal scenario
    # runs contention-free AND unthrottled (SimConfig.governor_enabled
    # is derived, not an independent field).
    node = make_node("H100", 4)
    config = SimConfig(jitter_sigma=0.0, contention_enabled=False)
    assert not config.governor_enabled
    result = simulate(node, _plan(node), config)
    assert result.min_clock_frac_seen == pytest.approx(1.0)


def test_strict_cap_throttles_and_slows():
    node = make_node("A100", 4)
    free = simulate(
        node, _plan(node), SimConfig(jitter_sigma=0.0)
    )
    capped = simulate(
        node,
        _plan(node),
        SimConfig(jitter_sigma=0.0, power_limit_w=120.0),
    )
    assert capped.min_clock_frac_seen < free.min_clock_frac_seen
    assert capped.end_time_s > free.end_time_s


def test_cap_enforced_on_average_power():
    node = make_node("A100", 4)
    cap = 150.0
    result = simulate(
        node,
        _plan(node),
        SimConfig(jitter_sigma=0.0, power_limit_w=cap),
    )
    # The EWMA loop allows brief spikes, but the iteration-average
    # power must settle near or under the cap.
    avg_w = result.energy_j(gpu=0) / result.end_time_s
    assert avg_w < cap * 1.15


def test_jitter_mean_effect_is_small():
    node = make_node("A100", 4)
    base = simulate(
        node, _plan(node), SimConfig(jitter_sigma=0.0)
    ).end_time_s
    jittered = [
        simulate(
            node, _plan(node), SimConfig(jitter_sigma=0.02, seed=s)
        ).end_time_s
        for s in range(5)
    ]
    mean = sum(jittered) / len(jittered)
    # 2% kernel-level jitter should not move the iteration mean by
    # more than a few percent (lognormal factors are mean-1).
    assert mean == pytest.approx(base, rel=0.04)


def test_sequential_timeline_has_no_concurrent_categories():
    node = make_node("A100", 4)
    plan = _plan(node, overlap=False)
    result = simulate(node, plan, SimConfig(jitter_sigma=0.0))
    from repro.profiler.summary import summarize

    summary = summarize(result)
    for g in range(node.num_gpus):
        assert summary.compute(g).overlapped_time_s == pytest.approx(0.0)
        assert summary.comm(g).overlapped_time_s == pytest.approx(0.0)
