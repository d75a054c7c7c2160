"""Post-hoc invariant checking for simulation results.

The discrete-event engine is the load-bearing component of this
reproduction; these checks let tests (and suspicious users) verify any
:class:`~repro.sim.result.SimulationResult` against properties that
must hold regardless of workload, strategy or configuration:

* every record lies inside ``[0, end_time]``;
* every task finishes exactly once: one record per task, and no
  record for a task the plan does not contain;
* records on one (gpu, stream) never overlap (CUDA stream semantics);
* explicit dependencies are honoured (no task starts before its deps
  finish);
* no kernel runs faster than its isolated roofline duration
  (contention and throttling can only slow things down);
* power segments tile the timeline without gaps or overlaps, and power
  stays within the component model's physical bounds.

``check_all`` raises :class:`InvariantViolation` with a description of
the first violated property.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim.result import SimulationResult
from repro.sim.task import Task

#: Relative slack for floating-point comparisons.
_REL_EPS = 1e-6
_ABS_EPS = 1e-9


class InvariantViolation(SimulationError):
    """A simulation result violated a must-hold property."""


def check_records_within_horizon(result: SimulationResult) -> None:
    """Every record lies in ``[0, end_time]``."""
    horizon = result.end_time_s * (1 + _REL_EPS) + _ABS_EPS
    for record in result.records:
        if record.start_s < -_ABS_EPS or record.end_s > horizon:
            raise InvariantViolation(
                f"record {record.label} [{record.start_s}, {record.end_s}] "
                f"outside horizon [0, {result.end_time_s}]"
            )


def check_stream_serialization(result: SimulationResult) -> None:
    """Records on one (gpu, stream) must not overlap in time.

    Collective records are exempt on the *comm* side only in that the
    rendezvous wait is not part of the record; the engine records them
    from actual start, so they too must serialize within their stream.
    """
    by_stream: Dict[Tuple[int, str], List] = {}
    for record in result.records:
        by_stream.setdefault((record.gpu, record.stream), []).append(record)
    for key, records in by_stream.items():
        records.sort(key=lambda r: (r.start_s, r.end_s))
        for a, b in zip(records, records[1:]):
            slack = _REL_EPS * max(a.end_s, 1.0) + _ABS_EPS
            if b.start_s < a.end_s - slack:
                raise InvariantViolation(
                    f"stream {key}: {b.label} starts at {b.start_s} before "
                    f"{a.label} ends at {a.end_s}"
                )


def check_tasks_finish_once(
    result: SimulationResult, tasks: Sequence[Task]
) -> None:
    """Every task has exactly one record, and every record a task."""
    known = {task.task_id for task in tasks}
    finished = set()
    for record in result.records:
        if record.task_id not in known:
            raise InvariantViolation(
                f"record {record.label} has unknown task id "
                f"{record.task_id}"
            )
        if record.task_id in finished:
            raise InvariantViolation(
                f"task {record.label} finished more than once"
            )
        finished.add(record.task_id)
    for task in tasks:
        if task.task_id not in finished:
            raise InvariantViolation(f"task {task.label} never finished")


def check_dependencies(
    result: SimulationResult, tasks: Sequence[Task]
) -> None:
    """No task starts before all its explicit dependencies finish."""
    by_id = {r.task_id: r for r in result.records}
    for task in tasks:
        record = by_id.get(task.task_id)
        if record is None:
            raise InvariantViolation(
                f"task {task.label} has no record in the result"
            )
        for dep in task.deps:
            dep_record = by_id.get(dep)
            if dep_record is None:
                raise InvariantViolation(
                    f"task {task.label}: dep {dep} never executed"
                )
            slack = _REL_EPS * max(dep_record.end_s, 1.0) + _ABS_EPS
            if record.start_s < dep_record.end_s - slack:
                raise InvariantViolation(
                    f"task {task.label} started at {record.start_s} before "
                    f"dep {dep_record.label} finished at {dep_record.end_s}"
                )


def check_no_superluminal_kernels(result: SimulationResult) -> None:
    """Nothing finishes faster than its isolated-machine duration."""
    for record in result.records:
        floor = record.isolated_duration_s * (1 - _REL_EPS) - _ABS_EPS
        if record.duration_s < floor:
            raise InvariantViolation(
                f"{record.label} ran in {record.duration_s}s, faster than "
                f"its isolated duration {record.isolated_duration_s}s"
            )


def check_power_segments(
    result: SimulationResult,
    tdp_w: Optional[float] = None,
    max_power_frac: float = 1.8,
) -> None:
    """Segments tile ``[0, end_time]`` per GPU; power stays physical."""
    for gpu, segments in result.power_segments.items():
        if not segments:
            continue
        ordered = sorted(segments, key=lambda s: s.start_s)
        cursor = 0.0
        for seg in ordered:
            slack = _REL_EPS * max(cursor, 1.0) + 1e-7
            if abs(seg.start_s - cursor) > slack:
                raise InvariantViolation(
                    f"gpu {gpu}: power segment gap/overlap at {cursor} "
                    f"(next segment starts {seg.start_s})"
                )
            cursor = seg.end_s
            if seg.power_w < 0:
                raise InvariantViolation(
                    f"gpu {gpu}: negative power {seg.power_w}"
                )
            if tdp_w is not None and seg.power_w > tdp_w * max_power_frac:
                raise InvariantViolation(
                    f"gpu {gpu}: power {seg.power_w} W exceeds "
                    f"{max_power_frac} x TDP"
                )
        horizon_slack = _REL_EPS * max(result.end_time_s, 1.0) + 1e-7
        if abs(cursor - result.end_time_s) > horizon_slack:
            raise InvariantViolation(
                f"gpu {gpu}: power trace ends at {cursor}, "
                f"simulation at {result.end_time_s}"
            )


def check_all(
    result: SimulationResult,
    tasks: Optional[Iterable[Task]] = None,
    tdp_w: Optional[float] = None,
) -> None:
    """Run every applicable invariant check."""
    check_records_within_horizon(result)
    check_stream_serialization(result)
    check_no_superluminal_kernels(result)
    check_power_segments(result, tdp_w=tdp_w)
    if tasks is not None:
        tasks = list(tasks)
        check_tasks_finish_once(result, tasks)
        check_dependencies(result, tasks)
