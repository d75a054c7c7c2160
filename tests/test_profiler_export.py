"""Tests for the profiler's Chrome-trace export."""

import json

import pytest

from repro.profiler.chrome_trace import to_chrome_trace, write_chrome_trace
from repro.sim.result import PowerSegment, SimulationResult, TaskRecord
from repro.sim.task import TaskCategory


def _record(tid, label, cat=TaskCategory.COMPUTE, gpu=0, start=0.0, end=1.0):
    return TaskRecord(
        task_id=tid,
        gpu=gpu,
        stream="compute",
        label=label,
        category=cat,
        phase="forward",
        start_s=start,
        end_s=end,
        isolated_duration_s=(end - start) * 0.9,
    )


@pytest.fixture()
def result():
    records = [
        _record(0, "g0.L0.qkv", start=0.0, end=0.4),
        _record(1, "g1.L0.qkv", gpu=1, start=0.0, end=0.6),
        _record(2, "g0.ar.grads", cat=TaskCategory.COMM, start=0.4, end=1.0),
    ]
    segments = {
        0: [
            PowerSegment(
                gpu=0,
                start_s=0.0,
                end_s=1.0,
                power_w=300.0,
                compute_active=True,
                comm_active=False,
                clock_frac=1.0,
            )
        ]
    }
    return SimulationResult(
        end_time_s=1.0, records=records, power_segments=segments, num_gpus=2
    )


def test_chrome_trace_event_shape(result):
    events = to_chrome_trace(result)
    duration_events = [e for e in events if e["ph"] == "X"]
    counter_events = [e for e in events if e["ph"] == "C"]
    assert len(duration_events) == 3
    assert len(counter_events) == 1
    first = duration_events[0]
    assert first["ts"] == pytest.approx(0.0)
    assert first["dur"] == pytest.approx(0.4e6)  # microseconds
    assert first["pid"] == 0


def test_chrome_trace_file_is_valid_json(result, tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(result, str(path))
    with open(path) as fh:
        payload = json.load(fh)
    assert isinstance(payload, list)
    assert len(payload) == 4
