"""Collective cost model: wire bytes, durations, contention footprints."""

import pytest

from repro.collectives.cost_model import (
    CollectiveCost,
    CollectiveCostModel,
    wire_bytes_per_rank,
)
from repro.collectives.library import NCCL, RCCL, library_for
from repro.collectives.primitives import CollectiveKind, CollectiveOp
from repro.errors import ConfigurationError
from repro.hw.calibration import NVIDIA_CALIBRATION
from repro.hw.gpu import Vendor
from repro.hw.registry import NVLINK3
from repro.units import GB, MB


def make_model():
    return CollectiveCostModel(
        link=NVLINK3,
        library=NCCL,
        calibration=NVIDIA_CALIBRATION,
        hbm_effective_bandwidth=1300 * GB,
    )


def op(kind, payload=1 * GB, n=4):
    return CollectiveOp(
        key=f"test-{kind.value}",
        kind=kind,
        payload_bytes=payload,
        participants=tuple(range(n)),
    )


def test_ring_allreduce_wire_bytes():
    o = op(CollectiveKind.ALL_REDUCE, payload=1 * GB, n=4)
    assert wire_bytes_per_rank(o) == pytest.approx(2 * 1 * GB * 3 / 4)


def test_allgather_and_reduce_scatter_are_half_allreduce():
    ar = wire_bytes_per_rank(op(CollectiveKind.ALL_REDUCE))
    ag = wire_bytes_per_rank(op(CollectiveKind.ALL_GATHER))
    rs = wire_bytes_per_rank(op(CollectiveKind.REDUCE_SCATTER))
    assert ag == pytest.approx(ar / 2)
    assert rs == pytest.approx(ar / 2)


def test_send_recv_moves_full_payload():
    o = CollectiveOp(
        key="p2p",
        kind=CollectiveKind.SEND_RECV,
        payload_bytes=10 * MB,
        participants=(0, 1),
    )
    assert wire_bytes_per_rank(o) == 10 * MB


def test_duration_scales_with_payload():
    model = make_model()
    small = model.cost(op(CollectiveKind.ALL_GATHER, payload=64 * MB))
    large = model.cost(op(CollectiveKind.ALL_GATHER, payload=1 * GB))
    assert large.duration_s > small.duration_s
    # Asymptotically linear: 16x payload -> ~16x duration for large msgs.
    ratio = large.duration_s / small.duration_s
    assert 10 < ratio < 18


def test_small_messages_are_latency_dominated():
    model = make_model()
    tiny = model.cost(op(CollectiveKind.ALL_GATHER, payload=4096))
    # Effective bandwidth is a tiny fraction of peak.
    achieved = tiny.wire_bytes / tiny.duration_s
    assert achieved < 0.05 * NVLINK3.effective_unidir_bytes_per_s


def test_reduction_collectives_move_more_hbm_per_wire_byte():
    model = make_model()
    ar = model.cost(op(CollectiveKind.ALL_REDUCE))
    ag = model.cost(op(CollectiveKind.ALL_GATHER))
    ar_per_wire = ar.hbm_bytes_per_s * ar.duration_s / ar.wire_bytes
    ag_per_wire = ag.hbm_bytes_per_s * ag.duration_s / ag.wire_bytes
    assert ar_per_wire > ag_per_wire


def test_sm_fraction_grows_with_message_size():
    model = make_model()
    small = model.cost(op(CollectiveKind.ALL_GATHER, payload=1 * MB))
    large = model.cost(op(CollectiveKind.ALL_GATHER, payload=1 * GB))
    assert small.sm_fraction < large.sm_fraction
    assert large.sm_fraction <= NVIDIA_CALIBRATION.comm_sm_fraction


def test_p2p_bandwidth_derated_vs_ring():
    model = make_model()
    ring = model.cost(op(CollectiveKind.ALL_GATHER, payload=512 * MB))
    p2p = model.cost(
        CollectiveOp(
            key="p2p",
            kind=CollectiveKind.SEND_RECV,
            payload_bytes=512 * MB,
            participants=(0, 1),
        )
    )
    ring_bw = ring.wire_bytes / ring.duration_s
    p2p_bw = p2p.wire_bytes / p2p.duration_s
    assert p2p_bw < 0.6 * ring_bw


def test_rccl_uses_more_channels_than_nccl():
    assert RCCL.max_channels > NCCL.max_channels
    assert library_for(Vendor.AMD) is RCCL
    assert library_for(Vendor.NVIDIA) is NCCL


def test_channel_utilization_ramp():
    assert NCCL.channel_utilization(0) == 0.0
    assert NCCL.channel_utilization(NCCL.channel_half_bytes) == pytest.approx(0.5)
    assert NCCL.channel_utilization(1 * GB) > 0.99


def test_op_validation():
    with pytest.raises(ConfigurationError):
        CollectiveOp(
            key="bad", kind=CollectiveKind.ALL_REDUCE,
            payload_bytes=0, participants=(0, 1),
        )
    with pytest.raises(ConfigurationError):
        CollectiveOp(
            key="bad", kind=CollectiveKind.ALL_REDUCE,
            payload_bytes=10, participants=(0,),
        )
    with pytest.raises(ConfigurationError):
        CollectiveOp(
            key="bad", kind=CollectiveKind.ALL_REDUCE,
            payload_bytes=10, participants=(0, 0),
        )
    with pytest.raises(ConfigurationError):
        CollectiveOp(
            key="bad", kind=CollectiveKind.SEND_RECV,
            payload_bytes=10, participants=(0, 1, 2),
        )


def test_cost_validation():
    with pytest.raises(ConfigurationError):
        CollectiveCost(
            duration_s=0.0,
            wire_bytes=1.0,
            hbm_bytes_per_s=1.0,
            sm_fraction=0.1,
            link_fraction=0.5,
            clock_sensitivity=0.3,
        )
    with pytest.raises(ConfigurationError):
        CollectiveCostModel(
            NVLINK3, NCCL, NVIDIA_CALIBRATION, hbm_effective_bandwidth=0.0
        )


def test_reduction_flag():
    assert CollectiveKind.ALL_REDUCE.involves_reduction
    assert CollectiveKind.REDUCE_SCATTER.involves_reduction
    assert not CollectiveKind.ALL_GATHER.involves_reduction
    assert not CollectiveKind.SEND_RECV.involves_reduction


def test_cost_memo_is_keyed_on_what_the_cost_reads():
    # Ops that differ only in their key (one per layer of a plan, and
    # per plan) share one memo entry and one cost object.
    model = make_model()
    first = CollectiveOp(
        key="plan-a/ag.L0#1",
        kind=CollectiveKind.ALL_GATHER,
        payload_bytes=64 * MB,
        participants=(0, 1, 2, 3),
    )
    second = CollectiveOp(
        key="plan-b/ag.L7#9",
        kind=CollectiveKind.ALL_GATHER,
        payload_bytes=64 * MB,
        participants=(0, 1, 2, 3),
    )
    cost = model.cost(first)
    assert model.cost(second) is cost
    assert cost == make_model()._cost_uncached(second)
    assert model.cost(op(CollectiveKind.ALL_GATHER, payload=32 * MB)) != cost
    assert model.cost(op(CollectiveKind.REDUCE_SCATTER, payload=64 * MB)) != cost
