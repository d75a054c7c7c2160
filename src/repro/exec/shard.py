"""Deterministic sharding of compiled job lists.

A :class:`ShardPlan` splits any :class:`~repro.exec.job.SimJob` list
into ``count`` disjoint shards so independent workers (processes,
machines) can each run ``scenario run NAME --shard i/N`` against a
shared ``--cache-dir``; the cache is the record of what they did.

The partition is a pure function of the job list itself: the distinct
cache keys are sorted and dealt round-robin, so every worker computes
the identical assignment from the spec alone — no coordinator, no
shared state, no ordering dependence on how the spec happened to
compile. Jobs with equal cache keys (duplicate cells) always land in
the same shard, which keeps shards disjoint *by key*, the unit the
result cache accounts in.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.errors import ConfigurationError
from repro.exec.job import SimJob

_SHARD_RE = re.compile(r"^(\d+)/(\d+)$")


@dataclass(frozen=True)
class ShardPlan:
    """Shard ``index`` of ``count`` (zero-based, ``0 <= index < count``)."""

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigurationError(
                f"shard count must be >= 1, got {self.count}"
            )
        if not 0 <= self.index < self.count:
            raise ConfigurationError(
                f"shard index must be in [0, {self.count}), got {self.index}"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardPlan":
        """Parse the CLI spelling ``i/N`` (e.g. ``--shard 0/4``)."""
        match = _SHARD_RE.match(text.strip())
        if match is None:
            raise ConfigurationError(
                f"bad shard spec {text!r}: expected I/N with 0 <= I < N "
                f"(e.g. 0/4)"
            )
        return cls(index=int(match.group(1)), count=int(match.group(2)))

    def describe(self) -> str:
        """The canonical ``i/N`` spelling."""
        return f"{self.index}/{self.count}"

    @staticmethod
    def assignments(
        jobs: Sequence[SimJob], count: int
    ) -> Dict[str, int]:
        """Cache key -> shard index, identical for every worker.

        Sorting the distinct keys first makes the mapping independent
        of compile order; round-robin keeps shard sizes within one job
        of each other regardless of how hashes cluster.
        """
        if count < 1:
            raise ConfigurationError(
                f"shard count must be >= 1, got {count}"
            )
        keys = sorted({job.cache_key() for job in jobs})
        return {key: position % count for position, key in enumerate(keys)}

    def select(self, jobs: Sequence[SimJob]) -> List[SimJob]:
        """The sublist of ``jobs`` belonging to this shard.

        Submission order is preserved: a shard runs its cells in the
        same relative order the unsharded run would.
        """
        owner = self.assignments(jobs, self.count)
        return [
            job for job in jobs if owner[job.cache_key()] == self.index
        ]
