"""Collective algorithm selection: ring vs tree (NCCL_ALGO semantics).

NCCL and RCCL implement most collectives with two families of
algorithms and pick per call:

* **Ring** — bandwidth-optimal: each rank sends ``(N-1)/N`` of the
  payload per phase, but a chunk crosses ``N-1`` hops, so latency grows
  linearly with rank count. Wins for large messages.
* **Tree** — latency-optimal: reduction flows up and down a binary
  tree in ``~2·log2(N)`` hops, at the price of each rank shipping the
  *full* payload (up + down for all-reduce). Wins for small messages,
  where per-hop latency dominates the wire time.

The crossover point is what makes pipeline parallelism's small
activation transfers behave differently from FSDP's shard-sized
gathers, and it moves with rank count and link latency. This module
reproduces the selection; :class:`~repro.collectives.cost_model.
CollectiveCostModel` evaluates both candidates and keeps the cheaper.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.collectives.primitives import CollectiveKind, CollectiveOp
from repro.errors import ConfigurationError
from repro.hw.interconnect import LinkSpec


class Algorithm(enum.Enum):
    """Collective algorithm families (NCCL_ALGO)."""

    RING = "ring"
    TREE = "tree"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Collectives with a tree variant; the rest (permutation-style
#: patterns) only exist as ring/direct exchanges.
_TREE_CAPABLE = frozenset({CollectiveKind.ALL_REDUCE})


def supports_tree(kind: CollectiveKind) -> bool:
    """Whether a tree variant of the collective exists."""
    return kind in _TREE_CAPABLE


def ring_wire_bytes(op: CollectiveOp) -> float:
    """Bytes each rank sends under the ring algorithm."""
    n = op.world_size
    s = op.payload_bytes
    share = (n - 1) / n
    if op.kind is CollectiveKind.ALL_REDUCE:
        return 2.0 * s * share
    if op.kind in (CollectiveKind.ALL_GATHER, CollectiveKind.REDUCE_SCATTER):
        return s * share
    if op.kind is CollectiveKind.SEND_RECV:
        return s
    raise ConfigurationError(f"unhandled collective kind {op.kind}")


def tree_wire_bytes(op: CollectiveOp) -> float:
    """Bytes each rank sends under the tree algorithm.

    All-reduce trees reduce up and broadcast down: every non-root rank
    forwards the full payload in each direction.
    """
    if not supports_tree(op.kind):
        raise ConfigurationError(f"{op.kind} has no tree algorithm")
    return 2.0 * op.payload_bytes


def ring_hops(op: CollectiveOp) -> int:
    """Serial hop count of the ring pipeline."""
    return max(op.world_size - 1, 1)


def tree_hops(op: CollectiveOp) -> int:
    """Serial hop count up and down the binary tree."""
    return 2 * max(1, math.ceil(math.log2(op.world_size)))


@dataclass(frozen=True)
class AlgorithmCost:
    """Latency/bandwidth decomposition of one algorithm choice."""

    algorithm: Algorithm
    wire_bytes: float
    latency_s: float
    duration_s: float


def candidate_cost(
    op: CollectiveOp,
    algorithm: Algorithm,
    link: LinkSpec,
    effective_bandwidth: float,
    launch_overhead_s: float,
) -> AlgorithmCost:
    """Duration of ``op`` under one algorithm on one link."""
    if effective_bandwidth <= 0:
        raise ConfigurationError("effective bandwidth must be positive")
    if algorithm is Algorithm.RING:
        wire = ring_wire_bytes(op)
        hops = ring_hops(op)
    else:
        wire = tree_wire_bytes(op)
        hops = tree_hops(op)
    latency = launch_overhead_s + hops * link.latency_s
    return AlgorithmCost(
        algorithm=algorithm,
        wire_bytes=wire,
        latency_s=latency,
        duration_s=latency + wire / effective_bandwidth,
    )


def select_algorithm(
    op: CollectiveOp,
    link: LinkSpec,
    effective_bandwidth: float,
    launch_overhead_s: float,
) -> AlgorithmCost:
    """Pick the faster of ring and tree for ``op`` (NCCL's auto mode)."""
    ring = candidate_cost(
        op, Algorithm.RING, link, effective_bandwidth, launch_overhead_s
    )
    if not supports_tree(op.kind):
        return ring
    tree = candidate_cost(
        op, Algorithm.TREE, link, effective_bandwidth, launch_overhead_s
    )
    return tree if tree.duration_s < ring.duration_s else ring


def crossover_bytes(
    op_kind: CollectiveKind,
    world_size: int,
    link: LinkSpec,
    effective_bandwidth: float,
) -> float:
    """Payload size at which ring and tree durations are equal.

    Below this size the tree's lower hop count wins; above it the
    ring's lower wire volume wins. Infinite when tree always loses
    (its extra wire bytes outweigh the saved hops at any size).
    """
    if not supports_tree(op_kind):
        return 0.0
    probe = CollectiveOp(
        key="crossover-probe",
        kind=op_kind,
        payload_bytes=1.0,
        participants=tuple(range(world_size)),
    )
    hop_gain = (ring_hops(probe) - tree_hops(probe)) * link.latency_s
    wire_penalty_per_byte = (
        tree_wire_bytes(probe) - ring_wire_bytes(probe)
    ) / effective_bandwidth
    if hop_gain <= 0:
        return 0.0
    if wire_penalty_per_byte <= 0:
        return float("inf")
    return hop_gain / wire_penalty_per_byte
