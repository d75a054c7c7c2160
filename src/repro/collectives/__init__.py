"""Collective-communication models (NCCL on NVIDIA, RCCL on AMD).

Rather than re-implementing GPU communication kernels, this package
models their *cost structure*: wire traffic per rank for each algorithm
(ring all-reduce / all-gather / reduce-scatter, point-to-point
send/recv), message-size bandwidth ramps, SM/CU channel
occupancy and per-wire-byte HBM traffic — the quantities that determine
how much a concurrent collective contends with compute.
"""

from repro.collectives.primitives import CollectiveKind, CollectiveOp
from repro.collectives.cost_model import CollectiveCost, CollectiveCostModel
from repro.collectives.library import CollectiveLibrary, library_for

__all__ = [
    "CollectiveCost",
    "CollectiveCostModel",
    "CollectiveKind",
    "CollectiveLibrary",
    "CollectiveOp",
    "library_for",
]
