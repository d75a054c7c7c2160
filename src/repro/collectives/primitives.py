"""Collective operation descriptions."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError


class CollectiveKind(enum.Enum):
    """The collective patterns used by the paper's two strategies.

    FSDP uses ``ALL_GATHER`` (parameter unsharding) and
    ``REDUCE_SCATTER`` (gradient sharding); classic DDP uses
    ``ALL_REDUCE``; pipeline parallelism uses point-to-point
    ``SEND_RECV``.
    """

    ALL_REDUCE = "all_reduce"
    ALL_GATHER = "all_gather"
    REDUCE_SCATTER = "reduce_scatter"
    SEND_RECV = "send_recv"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class CollectiveOp:
    """One instance of a collective on a set of ranks.

    ``payload_bytes`` is the full logical tensor size (e.g. the
    unsharded parameter bytes for an FSDP all-gather); per-rank wire
    traffic is derived by the cost model. For ``SEND_RECV`` the
    participants are ``(src, dst)``.
    """

    key: str
    kind: CollectiveKind
    payload_bytes: float
    participants: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.payload_bytes <= 0:
            raise ConfigurationError(
                f"collective {self.key}: payload must be positive"
            )
        if len(self.participants) < 2:
            raise ConfigurationError(
                f"collective {self.key}: needs at least two participants"
            )
        if len(set(self.participants)) != len(self.participants):
            raise ConfigurationError(
                f"collective {self.key}: duplicate participants"
            )
        if self.kind is CollectiveKind.SEND_RECV and len(self.participants) != 2:
            raise ConfigurationError(
                f"collective {self.key}: send/recv is point-to-point"
            )

    @property
    def world_size(self) -> int:
        """Number of participating ranks."""
        return len(self.participants)
