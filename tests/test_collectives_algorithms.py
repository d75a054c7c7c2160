"""Tests for ring-vs-tree collective algorithm selection."""

import pytest

from repro.collectives.algorithms import (
    Algorithm,
    candidate_cost,
    crossover_bytes,
    ring_hops,
    ring_wire_bytes,
    select_algorithm,
    supports_tree,
    tree_hops,
    tree_wire_bytes,
)
from repro.collectives.cost_model import CollectiveCostModel
from repro.collectives.library import NCCL
from repro.collectives.primitives import CollectiveKind, CollectiveOp
from repro.errors import ConfigurationError
from repro.hw.calibration import NVIDIA_CALIBRATION
from repro.hw.registry import get_gpu, get_link
from repro.units import KB, MB

LINK = get_link("H100")
BW = LINK.effective_unidir_bytes_per_s


def _op(kind=CollectiveKind.ALL_REDUCE, payload=1.0 * MB, world=8):
    return CollectiveOp(
        key="t", kind=kind, payload_bytes=payload, participants=tuple(range(world))
    )


def test_only_all_reduce_has_a_tree():
    assert supports_tree(CollectiveKind.ALL_REDUCE)
    assert not supports_tree(CollectiveKind.ALL_GATHER)
    assert not supports_tree(CollectiveKind.REDUCE_SCATTER)
    assert not supports_tree(CollectiveKind.SEND_RECV)


def test_tree_wire_bytes_rejects_unsupported():
    with pytest.raises(ConfigurationError, match="no tree"):
        tree_wire_bytes(_op(kind=CollectiveKind.ALL_GATHER))


def test_hop_counts():
    op8 = _op(world=8)
    assert ring_hops(op8) == 7
    assert tree_hops(op8) == 6  # 2 * log2(8)
    op4 = _op(world=4)
    assert ring_hops(op4) == 3
    assert tree_hops(op4) == 4  # tree loses on hops at N=4


def test_tree_ships_full_payload():
    op = _op(world=8, payload=8.0 * MB)
    assert tree_wire_bytes(op) == pytest.approx(16.0 * MB)
    assert ring_wire_bytes(op) == pytest.approx(2 * 8.0 * MB * 7 / 8)


def test_large_messages_choose_ring():
    selected = select_algorithm(
        _op(world=8, payload=256 * MB), LINK, BW, NCCL.launch_overhead_s
    )
    assert selected.algorithm is Algorithm.RING


def test_small_messages_choose_tree_on_deep_rings():
    selected = select_algorithm(
        _op(world=8, payload=1.0 * KB), LINK, BW, NCCL.launch_overhead_s
    )
    assert selected.algorithm is Algorithm.TREE


def test_four_ranks_always_ring():
    # At N=4 the tree has more hops AND more bytes: never selected.
    for payload in (1.0 * KB, 1.0 * MB, 256 * MB):
        selected = select_algorithm(
            _op(world=4, payload=payload), LINK, BW, NCCL.launch_overhead_s
        )
        assert selected.algorithm is Algorithm.RING


def test_crossover_between_regimes():
    crossover = crossover_bytes(CollectiveKind.ALL_REDUCE, 8, LINK, BW)
    assert 0 < crossover < float("inf")
    below = select_algorithm(
        _op(world=8, payload=crossover * 0.5), LINK, BW, 0.0
    )
    above = select_algorithm(
        _op(world=8, payload=crossover * 2.0), LINK, BW, 0.0
    )
    assert below.algorithm is Algorithm.TREE
    assert above.algorithm is Algorithm.RING


def test_crossover_zero_when_tree_never_wins():
    assert crossover_bytes(CollectiveKind.ALL_REDUCE, 4, LINK, BW) == 0.0
    assert crossover_bytes(CollectiveKind.ALL_GATHER, 8, LINK, BW) == 0.0


def test_candidate_cost_duration_decomposition():
    op = _op(world=8, payload=8.0 * MB)
    cost = candidate_cost(op, Algorithm.RING, LINK, BW, 1e-5)
    assert cost.duration_s == pytest.approx(
        cost.latency_s + cost.wire_bytes / BW
    )


def test_cost_model_records_selected_algorithm():
    """The recorded algorithm matches a fresh selection at the model's
    own (message-size-ramped) bandwidth.

    Note the ramp shifts the regime: at ramped small-message bandwidth
    the wire time dominates even tiny payloads, so the ring can stay
    optimal where the unramped analysis above picks the tree.
    """
    gpu = get_gpu("H100")
    model = CollectiveCostModel(
        LINK, NCCL, NVIDIA_CALIBRATION, gpu.memory.effective_bandwidth
    )
    for payload in (1.0 * KB, 4 * MB, 256 * MB):
        op = _op(world=8, payload=payload)
        cost = model.cost(op)
        expected = select_algorithm(
            op,
            LINK,
            model.effective_link_bandwidth(op),
            NCCL.launch_overhead_s,
        )
        assert cost.algorithm == expected.algorithm.value


def test_selection_never_worse_than_ring():
    for world in (2, 4, 8, 16):
        for payload in (1.0 * KB, 64 * KB, 4 * MB, 256 * MB):
            op = _op(world=world, payload=payload)
            ring = candidate_cost(
                op, Algorithm.RING, LINK, BW, NCCL.launch_overhead_s
            )
            chosen = select_algorithm(op, LINK, BW, NCCL.launch_overhead_s)
            assert chosen.duration_s <= ring.duration_s + 1e-12
