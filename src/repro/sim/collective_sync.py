"""Rendezvous and synchronized progress of collective instances."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.collectives.cost_model import CollectiveCost
from repro.collectives.primitives import CollectiveOp
from repro.errors import SimulationError


@dataclass
class CollectiveInstance:
    """Runtime state of one collective across its ranks.

    A collective *starts* when every participating rank's task has
    reached the head of its stream with dependencies satisfied (the
    NCCL rendezvous). Progress is then tracked once for the whole
    group; all rank tasks complete together.
    """

    op: CollectiveOp
    cost: CollectiveCost
    #: Arrived ranks: gpu -> the rank task's row in the plan.
    posted: Dict[int, int] = field(default_factory=dict)
    post_times: Dict[int, float] = field(default_factory=dict)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    work_remaining: float = 1.0
    rate: float = 0.0
    last_update_s: float = 0.0
    #: Creation sequence number assigned by the engine; the incremental
    #: engine iterates per-GPU instance sets in ``seq`` order so float
    #: accumulations match the reference engine's global dict order.
    seq: int = 0
    #: Index into the engine's global time-step log up to which this
    #: instance's progress has been banked (incremental engine only).
    bank_idx: int = 0

    def post(self, gpu: int, task: int, now: float) -> None:
        """Register rank ``gpu``'s arrival with its task (a plan row)."""
        if gpu in self.posted:
            raise SimulationError(
                f"collective {self.op.key}: rank {gpu} posted twice"
            )
        self.posted[gpu] = task
        self.post_times[gpu] = now

    @property
    def ready(self) -> bool:
        """All ranks have arrived."""
        return len(self.posted) == self.op.world_size

    @property
    def active(self) -> bool:
        """Started but not finished."""
        return self.started_at is not None and self.finished_at is None

    def start(self, now: float) -> None:
        """Begin synchronized progress."""
        if not self.ready:
            raise SimulationError(
                f"collective {self.op.key}: start before all ranks posted"
            )
        if self.started_at is not None:
            raise SimulationError(
                f"collective {self.op.key}: started twice"
            )
        self.started_at = now
        self.last_update_s = now

    def progress_scale(self, min_clock_frac: float) -> float:
        """Progress-rate multiplier under the slowest rank's clock.

        Collectives are mostly link-bound; only ``clock_sensitivity`` of
        the progress rate follows the SM clock (the copy/reduce loops).
        """
        c = self.cost.clock_sensitivity
        return (1.0 - c) + c * min_clock_frac

    def nominal_rate(self) -> float:
        """Work units per second on an unthrottled machine."""
        return 1.0 / self.cost.duration_s

    def bank_progress(self, now: float) -> None:
        """Accrue progress at the current rate up to ``now``."""
        if not self.active:
            return
        elapsed = now - self.last_update_s
        if elapsed < 0:
            raise SimulationError(
                f"collective {self.op.key}: time went backwards"
            )
        self.work_remaining = max(0.0, self.work_remaining - self.rate * elapsed)
        self.last_update_s = now

    def finish(self, now: float) -> None:
        """Mark completion."""
        self.finished_at = now

    def hbm_demand_now(self) -> float:
        """Current HBM bandwidth draw on each participant (bytes/s)."""
        if not self.active or self.cost.duration_s <= 0:
            return 0.0
        # Demand scales with actual progress rate relative to nominal.
        scale = self.rate * self.cost.duration_s
        return self.cost.hbm_bytes_per_s * scale

    def link_fraction_now(self) -> float:
        """Current link utilisation (for the power model)."""
        if not self.active:
            return 0.0
        scale = self.rate * self.cost.duration_s
        return min(1.0, self.cost.link_fraction * scale)
