"""Schedulable tasks: compute kernels and collective participations.

An :class:`~repro.parallel.plan.ExecutionPlan` stores its tasks
column-wise; these classes are its row view (``plan.tasks``) and the
row format of hand-built plans.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Optional

from repro.collectives.primitives import CollectiveOp
from repro.errors import PlanError
from repro.workloads.kernels import KernelSpec

#: Stream names used by the plan builders. Any string is accepted by the
#: engine; these are the conventional ones.
COMPUTE_STREAM = "compute"
COMM_STREAM = "comm"


class TaskCategory(enum.Enum):
    """Profiler-facing category (the paper's compute-vs-comm split)."""

    COMPUTE = "compute"
    COMM = "comm"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    # Members are singletons; identity hashing matches the default
    # name hash semantically but stays in C (profiler tables and
    # metrics assembly key dicts on the category per record).
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Task:
    """Base scheduling unit.

    A task runs on one GPU, in one stream. Within a stream, tasks run
    in plan order (CUDA stream semantics); ``deps`` adds cross-stream
    or cross-GPU happens-before edges (cudaEvent waits).
    """

    task_id: int
    gpu: int
    stream: str
    label: str
    deps: FrozenSet[int] = field(default_factory=frozenset)
    phase: str = ""

    def __post_init__(self) -> None:
        if self.task_id < 0:
            raise PlanError(f"task {self.label}: negative id")
        if self.gpu < 0:
            raise PlanError(f"task {self.label}: negative gpu index")
        if self.task_id in self.deps:
            raise PlanError(f"task {self.label}: depends on itself")

    @property
    def category(self) -> TaskCategory:
        raise NotImplementedError


@dataclass(frozen=True)
class ComputeTask(Task):
    """A compute kernel execution."""

    kernel: Optional[KernelSpec] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kernel is None:
            raise PlanError(f"compute task {self.label}: kernel required")

    @property
    def category(self) -> TaskCategory:
        return TaskCategory.COMPUTE


@dataclass(frozen=True)
class CommTask(Task):
    """One rank's participation in a collective.

    All ranks of the same collective share the ``op`` object (same
    ``op.key``); the engine rendezvouses them and runs the collective as
    one synchronized instance.
    """

    op: Optional[CollectiveOp] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.op is None:
            raise PlanError(f"comm task {self.label}: op required")
        if self.gpu not in self.op.participants:
            raise PlanError(
                f"comm task {self.label}: gpu {self.gpu} not a participant "
                f"of {self.op.key}"
            )

    @property
    def category(self) -> TaskCategory:
        return TaskCategory.COMM
