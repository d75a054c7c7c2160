"""The invariant checker, applied across every strategy and mode.

These are the deepest integration tests in the suite: any scheduling or
accounting bug in the engine or a plan builder tends to surface as a
violated invariant somewhere in this grid.
"""

import pytest

from repro.hw.system import make_node
from repro.parallel.strategy import build_plan
from repro.sim.config import SimConfig
from repro.sim.engine import simulate
from repro.sim.invariants import (
    InvariantViolation,
    check_all,
    check_dependencies,
    check_no_superluminal_kernels,
    check_power_segments,
    check_records_within_horizon,
    check_stream_serialization,
    check_tasks_finish_once,
)
from repro.sim.result import PowerSegment, SimulationResult, TaskRecord
from repro.sim.task import TaskCategory
from repro.workloads.registry import get_model
from repro.workloads.transformer import TrainingShape


@pytest.mark.parametrize("gpu", ["A100", "MI250"])
@pytest.mark.parametrize("strategy", ["fsdp", "pipeline", "ddp", "tensor"])
@pytest.mark.parametrize("overlap", [True, False])
def test_every_strategy_passes_all_invariants(gpu, strategy, overlap):
    node = make_node(gpu, 4)
    model = get_model("gpt3-xl")
    shape = TrainingShape(batch_size=8)
    plan = build_plan(node, model, shape, strategy, overlap=overlap)
    result = simulate(node, plan, SimConfig())
    check_all(result, tasks=plan.tasks, tdp_w=node.gpu.tdp_w)


def test_invariants_hold_under_power_cap():
    node = make_node("A100", 4)
    plan = build_plan(
        node, get_model("gpt3-xl"), TrainingShape(batch_size=8), "fsdp"
    )
    result = simulate(
        node, plan, SimConfig(power_limit_w=150.0)
    )
    check_all(result, tasks=plan.tasks, tdp_w=node.gpu.tdp_w)


def _record(tid, start, end, iso=None, gpu=0, stream="s"):
    return TaskRecord(
        task_id=tid,
        gpu=gpu,
        stream=stream,
        label=f"t{tid}",
        category=TaskCategory.COMPUTE,
        phase="",
        start_s=start,
        end_s=end,
        isolated_duration_s=iso if iso is not None else end - start,
    )


def _result(records, segments=None, end=None):
    end = end if end is not None else max(r.end_s for r in records)
    return SimulationResult(
        end_time_s=end,
        records=records,
        power_segments=segments or {},
        num_gpus=1,
    )


def test_detects_record_past_horizon():
    result = _result([_record(0, 0.0, 2.0)], end=1.0)
    with pytest.raises(InvariantViolation, match="horizon"):
        check_records_within_horizon(result)


def test_detects_stream_overlap():
    result = _result([_record(0, 0.0, 1.0), _record(1, 0.5, 1.5)])
    with pytest.raises(InvariantViolation, match="starts at"):
        check_stream_serialization(result)


def test_allows_overlap_on_different_streams():
    result = _result(
        [
            _record(0, 0.0, 1.0, stream="compute"),
            _record(1, 0.5, 1.5, stream="comm"),
        ]
    )
    check_stream_serialization(result)


def test_detects_superluminal_kernel():
    result = _result([_record(0, 0.0, 0.5, iso=1.0)])
    with pytest.raises(InvariantViolation, match="faster"):
        check_no_superluminal_kernels(result)


def test_detects_unmet_dependency():
    from repro.hw.datapath import FP16_TENSOR
    from repro.sim.task import ComputeTask
    from repro.workloads.kernels import gemm_kernel

    kernel = gemm_kernel("k", 64, 64, 64, FP16_TENSOR)
    t0 = ComputeTask(task_id=0, gpu=0, stream="a", label="t0", kernel=kernel)
    t1 = ComputeTask(
        task_id=1,
        gpu=0,
        stream="b",
        label="t1",
        deps=frozenset([0]),
        kernel=kernel,
    )
    # t1 recorded as starting before t0 finished.
    result = _result(
        [_record(0, 0.0, 1.0, stream="a"), _record(1, 0.5, 1.5, stream="b")]
    )
    with pytest.raises(InvariantViolation, match="before dep"):
        check_dependencies(result, [t0, t1])


def _compute_tasks(n):
    from repro.hw.datapath import FP16_TENSOR
    from repro.sim.task import ComputeTask
    from repro.workloads.kernels import gemm_kernel

    kernel = gemm_kernel("k", 64, 64, 64, FP16_TENSOR)
    return [
        ComputeTask(task_id=i, gpu=0, stream="s", label=f"t{i}", kernel=kernel)
        for i in range(n)
    ]


def test_detects_task_finishing_twice():
    tasks = _compute_tasks(2)
    result = _result(
        [_record(0, 0.0, 1.0), _record(1, 1.0, 2.0), _record(1, 2.0, 3.0)]
    )
    with pytest.raises(InvariantViolation, match="more than once"):
        check_tasks_finish_once(result, tasks)
    # check_dependencies indexes records by task id, so on its own it
    # would keep one of the duplicates and pass; check_all must not.
    with pytest.raises(InvariantViolation, match="more than once"):
        check_all(result, tasks=tasks)


def test_detects_record_for_unknown_task():
    tasks = _compute_tasks(1)
    result = _result([_record(0, 0.0, 1.0), _record(7, 1.0, 2.0)])
    with pytest.raises(InvariantViolation, match="unknown task id 7"):
        check_tasks_finish_once(result, tasks)


def test_detects_task_that_never_finished():
    tasks = _compute_tasks(2)
    result = _result([_record(0, 0.0, 1.0)])
    with pytest.raises(InvariantViolation, match="t1 never finished"):
        check_tasks_finish_once(result, tasks)


def _segment(start, end, power):
    return PowerSegment(
        gpu=0,
        start_s=start,
        end_s=end,
        power_w=power,
        compute_active=True,
        comm_active=False,
        clock_frac=1.0,
    )


def test_detects_power_trace_gap():
    result = _result(
        [_record(0, 0.0, 1.0)],
        segments={0: [_segment(0.0, 0.4, 100.0), _segment(0.6, 1.0, 100.0)]},
    )
    with pytest.raises(InvariantViolation, match="gap"):
        check_power_segments(result)


def test_detects_unphysical_power():
    result = _result(
        [_record(0, 0.0, 1.0)],
        segments={0: [_segment(0.0, 1.0, 5000.0)]},
    )
    with pytest.raises(InvariantViolation, match="exceeds"):
        check_power_segments(result, tdp_w=400.0)
