"""Simulation outputs: task records and power segments."""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import SimulationError
from repro.sim.task import TaskCategory

_TaskRecordBase = collections.namedtuple(
    "_TaskRecordBase",
    (
        "task_id",
        "gpu",
        "stream",
        "label",
        "category",
        "phase",
        "start_s",
        "end_s",
        "isolated_duration_s",
    ),
)


class TaskRecord(_TaskRecordBase):
    """Execution record of one finished task (a profiler row).

    ``isolated_duration_s`` is the time this task would have taken with
    the whole GPU at full clock — the reference the paper's Eq. 1 uses
    via its sequential run; recording it per kernel also enables
    per-kernel slowdown attribution.

    A named tuple rather than a (frozen) dataclass: the engine creates
    one per finished task, and ``tuple.__new__`` construction beats a
    frozen dataclass's per-field ``object.__setattr__`` on that hot
    path while keeping field names, equality and ordering semantics.
    """

    __slots__ = ()

    def __new__(
        cls,
        task_id,
        gpu,
        stream,
        label,
        category,
        phase,
        start_s,
        end_s,
        isolated_duration_s,
    ):
        if end_s < start_s:
            raise SimulationError(f"task {label}: end before start")
        return _TaskRecordBase.__new__(
            cls,
            task_id,
            gpu,
            stream,
            label,
            category,
            phase,
            start_s,
            end_s,
            isolated_duration_s,
        )

    @property
    def duration_s(self) -> float:
        """Wall-clock duration."""
        return self.end_s - self.start_s

    @property
    def slowdown(self) -> float:
        """Per-task slowdown vs isolated execution."""
        if self.isolated_duration_s <= 0:
            return 0.0
        return self.duration_s / self.isolated_duration_s - 1.0


class PowerSegment(
    collections.namedtuple(
        "_PowerSegmentBase",
        (
            "gpu",
            "start_s",
            "end_s",
            "power_w",
            "compute_active",
            "comm_active",
            "clock_frac",
        ),
    )
):
    """A constant-power interval on one GPU.

    Named tuple for the same hot-path construction reason as
    :class:`TaskRecord` — segment rolls happen on every power change.
    """

    __slots__ = ()

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def overlapped(self) -> bool:
        """Both compute and communication resident."""
        return self.compute_active and self.comm_active

    @property
    def energy_j(self) -> float:
        return self.power_w * self.duration_s


@dataclass
class SimulationResult:
    """Everything a simulation run produced."""

    end_time_s: float
    records: List[TaskRecord] = field(default_factory=list)
    power_segments: Dict[int, List[PowerSegment]] = field(default_factory=dict)
    num_gpus: int = 0
    min_clock_frac_seen: float = 1.0

    def records_for(
        self, gpu: int = None, category: TaskCategory = None  # type: ignore[assignment]
    ) -> List[TaskRecord]:
        """Filter records by GPU and/or category."""
        out = self.records
        if gpu is not None:
            out = [r for r in out if r.gpu == gpu]
        if category is not None:
            out = [r for r in out if r.category is category]
        return out

    def total_time(self, category: TaskCategory, gpu: int = None) -> float:  # type: ignore[assignment]
        """Summed kernel time of a category (per GPU or averaged).

        With ``gpu=None`` the per-GPU sums are averaged, matching how
        the paper reports per-GPU kernel times on symmetric workloads.
        The whole-node sums are memoized per category in one pass over
        the records (metrics assembly asks for several categories per
        result); accumulating all categories in record order adds each
        category's terms in exactly the order the filtered sum would,
        so the memo is bit-identical, and it is keyed on the record
        count so a still-running simulation cannot serve stale sums.
        """
        if gpu is not None:
            return sum(r.duration_s for r in self.records_for(gpu, category))
        if self.num_gpus == 0:
            return 0.0
        records = self.records
        cached = getattr(self, "_category_time_cache", None)
        if cached is None or cached[0] != len(records):
            # Identity branches on the two known categories: dict-keying
            # on an enum calls its Python-level __hash__ per record,
            # which dominates this pass on large traces.
            compute_total = 0.0
            comm_total = 0.0
            totals: Dict[TaskCategory, float] = {}
            for r in records:
                cat = r[4]
                if cat is TaskCategory.COMPUTE:
                    compute_total += r[7] - r[6]
                elif cat is TaskCategory.COMM:
                    comm_total += r[7] - r[6]
                else:
                    totals[cat] = totals.get(cat, 0.0) + (r[7] - r[6])
            totals[TaskCategory.COMPUTE] = compute_total
            totals[TaskCategory.COMM] = comm_total
            cached = (len(records), totals)
            self._category_time_cache = cached
        return cached[1].get(category, 0.0) / self.num_gpus

    def intervals(
        self, gpu: int, category: TaskCategory
    ) -> List[Tuple[float, float]]:
        """(start, end) tuples for a GPU/category, sorted by start."""
        return sorted(
            (r.start_s, r.end_s)
            for r in self.records
            if r.gpu == gpu and r.category is category
        )

    def energy_j(self, gpu: int = None) -> float:  # type: ignore[assignment]
        """Total energy over the run (one GPU or whole node).

        Indexes the segment tuples directly — ``power_w * (end_s -
        start_s)`` is :attr:`PowerSegment.energy_j` with the two
        property frames stripped; metrics assembly sums hundreds of
        thousands of segments per grid pass.
        """
        gpus = [gpu] if gpu is not None else list(self.power_segments)
        segments = self.power_segments
        return sum(
            seg[3] * (seg[2] - seg[1])
            for g in gpus
            for seg in segments.get(g, [])
        )

    def validate(self) -> None:
        """Sanity-check invariants; raises SimulationError on violation."""
        for rec in self.records:
            if rec.end_s > self.end_time_s + 1e-9:
                raise SimulationError(
                    f"record {rec.label} ends after simulation end"
                )
        for gpu, segs in self.power_segments.items():
            prev_end = 0.0
            for seg in segs:
                if seg.start_s < prev_end - 1e-9:
                    raise SimulationError(
                        f"gpu {gpu}: overlapping power segments"
                    )
                prev_end = seg.end_s
