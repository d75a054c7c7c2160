"""Tests for collective rendezvous state tracking."""

import pytest

from repro.collectives.cost_model import CollectiveCost
from repro.collectives.primitives import CollectiveKind, CollectiveOp
from repro.errors import SimulationError
from repro.sim.collective_sync import CollectiveInstance


def _op(participants=(0, 1)):
    return CollectiveOp(
        key="test/ar#1",
        kind=CollectiveKind.ALL_REDUCE,
        payload_bytes=1e6,
        participants=tuple(participants),
    )


def _cost(duration=0.01):
    return CollectiveCost(
        duration_s=duration,
        wire_bytes=1e6,
        hbm_bytes_per_s=1e9,
        sm_fraction=0.1,
        link_fraction=0.5,
        clock_sensitivity=0.4,
    )


def _instance(participants=(0, 1)):
    op = _op(participants)
    return op, CollectiveInstance(op=op, cost=_cost())


def test_not_ready_until_all_ranks_post():
    _, inst = _instance()
    inst.post(0, 0, now=0.0)
    assert not inst.ready
    inst.post(1, 1, now=0.5)
    assert inst.ready


def test_double_post_same_rank_rejected():
    _, inst = _instance()
    inst.post(0, 0, now=0.0)
    with pytest.raises(SimulationError, match="twice"):
        inst.post(0, 2, now=0.1)


def test_start_before_ready_rejected():
    _, inst = _instance()
    inst.post(0, 0, now=0.0)
    with pytest.raises(SimulationError, match="before all ranks"):
        inst.start(0.0)


def test_double_start_rejected():
    _, inst = _instance()
    inst.post(0, 0, 0.0)
    inst.post(1, 1, 0.0)
    inst.start(0.0)
    with pytest.raises(SimulationError, match="twice"):
        inst.start(0.1)


def test_lifecycle_active_flag():
    _, inst = _instance()
    assert not inst.active
    inst.post(0, 0, 0.0)
    inst.post(1, 1, 0.0)
    inst.start(0.0)
    assert inst.active
    inst.finish(0.01)
    assert not inst.active


def test_progress_banks_at_rate():
    _, inst = _instance()
    inst.post(0, 0, 0.0)
    inst.post(1, 1, 0.0)
    inst.start(0.0)
    inst.rate = inst.nominal_rate()
    inst.bank_progress(0.005)  # half the 10 ms duration
    assert inst.work_remaining == pytest.approx(0.5)


def test_progress_never_goes_negative():
    _, inst = _instance()
    inst.post(0, 0, 0.0)
    inst.post(1, 1, 0.0)
    inst.start(0.0)
    inst.rate = inst.nominal_rate()
    inst.bank_progress(10.0)
    assert inst.work_remaining == 0.0


def test_time_reversal_rejected():
    _, inst = _instance()
    inst.post(0, 0, 0.0)
    inst.post(1, 1, 0.0)
    inst.start(1.0)
    with pytest.raises(SimulationError, match="backwards"):
        inst.bank_progress(0.5)


def test_progress_scale_blends_clock_sensitivity():
    _, inst = _instance()
    # clock_sensitivity 0.4: at half clock, rate = 0.6 + 0.4*0.5 = 0.8.
    assert inst.progress_scale(0.5) == pytest.approx(0.8)
    assert inst.progress_scale(1.0) == pytest.approx(1.0)


def test_inactive_instance_demands_nothing():
    _, inst = _instance()
    assert inst.hbm_demand_now() == 0.0
    assert inst.link_fraction_now() == 0.0


def test_throttled_rate_scales_demands():
    _, inst = _instance()
    inst.post(0, 0, 0.0)
    inst.post(1, 1, 0.0)
    inst.start(0.0)
    inst.rate = inst.nominal_rate() * 0.5
    assert inst.hbm_demand_now() == pytest.approx(0.5e9)
    assert inst.link_fraction_now() == pytest.approx(0.25)
