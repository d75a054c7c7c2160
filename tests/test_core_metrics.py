"""Tests for the paper's Eq. 1-5 metric derivations."""

import pytest

from repro.core.metrics import OverlapMetrics, compute_metrics
from repro.errors import SimulationError
from repro.sim.result import SimulationResult, TaskRecord
from repro.sim.task import TaskCategory


def _metrics(**overrides) -> OverlapMetrics:
    base = dict(
        compute_overlapping_s=1.2,
        compute_sequential_s=1.0,
        comm_total_s=0.5,
        overlapped_comm_s=0.4,
        overlap_ratio=0.3,
        e2e_overlapping_s=1.5,
        e2e_sequential_measured_s=1.8,
    )
    base.update(overrides)
    return OverlapMetrics(**base)


def test_eq1_compute_slowdown():
    assert _metrics().compute_slowdown == pytest.approx(0.2)


def test_eq1_guards_zero_denominator():
    assert _metrics(compute_sequential_s=0.0).compute_slowdown == 0.0


def test_eq3_absolute_slowdown():
    assert _metrics().slowdown_compute_s == pytest.approx(0.2)


def test_eq4_ideal_removes_slowdown():
    m = _metrics()
    assert m.e2e_ideal_s == pytest.approx(1.5 - 0.2)


def test_sequential_penalty_sign():
    m = _metrics()
    assert m.sequential_vs_overlapped == pytest.approx(1.8 / 1.5 - 1.0)
    faster_seq = _metrics(e2e_sequential_measured_s=1.2)
    assert faster_seq.sequential_vs_overlapped < 0


def test_overlapped_vs_ideal_positive_when_contended():
    m = _metrics()
    assert m.overlapped_vs_ideal > 0


def test_no_contention_means_ideal_equals_overlapped():
    m = _metrics(compute_overlapping_s=1.0)
    assert m.e2e_ideal_s == pytest.approx(m.e2e_overlapping_s)
    assert m.overlapped_vs_ideal == pytest.approx(0.0)


def _result(records, end=1.0) -> SimulationResult:
    return SimulationResult(
        end_time_s=end, records=records, power_segments={}, num_gpus=1
    )


def _record(tid, cat, start, end, iso=None):
    return TaskRecord(
        task_id=tid,
        gpu=0,
        stream="s",
        label=f"t{tid}",
        category=cat,
        phase="",
        start_s=start,
        end_s=end,
        isolated_duration_s=iso if iso is not None else end - start,
    )


def test_compute_metrics_rejects_mismatched_workloads():
    a = _result([_record(0, TaskCategory.COMPUTE, 0.0, 0.5)])
    b = _result(
        [
            _record(0, TaskCategory.COMPUTE, 0.0, 0.5),
            _record(1, TaskCategory.COMPUTE, 0.5, 1.0),
        ]
    )
    with pytest.raises(SimulationError, match="mismatched"):
        compute_metrics(a, b)


def test_compute_metrics_end_to_end():
    overlapped = _result(
        [
            _record(0, TaskCategory.COMPUTE, 0.0, 0.6),
            _record(1, TaskCategory.COMM, 0.1, 0.5),
        ],
        end=0.6,
    )
    sequential = _result(
        [
            _record(0, TaskCategory.COMPUTE, 0.0, 0.5),
            _record(1, TaskCategory.COMM, 0.5, 0.9),
        ],
        end=0.9,
    )
    m = compute_metrics(overlapped, sequential)
    assert m.compute_overlapping_s == pytest.approx(0.6)
    assert m.compute_sequential_s == pytest.approx(0.5)
    assert m.compute_slowdown == pytest.approx(0.2)
    # Comm [0.1, 0.5] is fully inside compute [0, 0.6].
    assert m.overlapped_comm_s == pytest.approx(0.4)
    assert m.overlap_ratio == pytest.approx(0.4 / 0.6)
    assert m.e2e_sequential_measured_s == pytest.approx(0.9)
    # Eq. 5 consistency: ideal + hidden comm == sequential.
    assert m.e2e_ideal_s + m.overlapped_comm_s == pytest.approx(0.9)


def test_ideal_simulated_passthrough():
    records = [_record(0, TaskCategory.COMPUTE, 0.0, 0.5)]
    m = compute_metrics(
        _result(records), _result(records), ideal=_result(records, end=0.42)
    )
    assert m.e2e_ideal_simulated_s == pytest.approx(0.42)
