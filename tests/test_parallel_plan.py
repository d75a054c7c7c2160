"""Tests for the plan builder and execution-plan validation."""

import pytest

from repro.collectives.primitives import CollectiveKind
from repro.errors import PlanError
from repro.hw.datapath import FP16_TENSOR
from repro.parallel.plan import ExecutionPlan, PlanBuilder
from repro.sim.task import COMM_STREAM, COMPUTE_STREAM, CommTask, ComputeTask
from repro.workloads.kernels import gemm_kernel

KERNEL = gemm_kernel("k", 256, 256, 256, FP16_TENSOR)


def _builder() -> PlanBuilder:
    return PlanBuilder(name="test-plan")


def test_builder_assigns_dense_ids():
    builder = _builder()
    ids = [builder.add_compute(0, KERNEL) for _ in range(5)]
    assert ids == [0, 1, 2, 3, 4]


def test_compute_task_defaults_to_compute_stream():
    builder = _builder()
    builder.add_compute(1, KERNEL)
    plan = builder.build()
    task = plan.tasks[0]
    assert isinstance(task, ComputeTask)
    assert task.stream == COMPUTE_STREAM
    assert task.gpu == 1


def test_collective_creates_one_task_per_participant():
    builder = _builder()
    out = builder.add_collective(
        CollectiveKind.ALL_REDUCE, 1024.0, [0, 1, 2, 3]
    )
    assert sorted(out) == [0, 1, 2, 3]
    plan = builder.build()
    assert len(plan.tasks) == 4
    ops = {t.op.key for t in plan.tasks}
    assert len(ops) == 1, "all ranks share one CollectiveOp"


def test_collective_tasks_default_to_comm_stream():
    builder = _builder()
    builder.add_collective(CollectiveKind.ALL_GATHER, 1024.0, [0, 1])
    plan = builder.build()
    assert all(t.stream == COMM_STREAM for t in plan.tasks)


def test_successive_collectives_get_distinct_keys():
    builder = _builder()
    builder.add_collective(CollectiveKind.ALL_REDUCE, 1024.0, [0, 1])
    builder.add_collective(CollectiveKind.ALL_REDUCE, 1024.0, [0, 1])
    plan = builder.build()
    keys = {t.op.key for t in plan.tasks}
    assert len(keys) == 2


def test_deps_by_gpu_wires_per_rank_dependencies():
    builder = _builder()
    a = builder.add_compute(0, KERNEL)
    b = builder.add_compute(1, KERNEL)
    out = builder.add_collective(
        CollectiveKind.ALL_REDUCE,
        1024.0,
        [0, 1],
        deps_by_gpu={0: [a], 1: [b]},
    )
    plan = builder.build()
    by_id = {t.task_id: t for t in plan.tasks}
    assert by_id[out[0]].deps == frozenset([a])
    assert by_id[out[1]].deps == frozenset([b])


def test_tasks_on_filters_gpu_and_stream():
    builder = _builder()
    builder.add_compute(0, KERNEL)
    builder.add_compute(1, KERNEL)
    builder.add_collective(CollectiveKind.ALL_REDUCE, 1024.0, [0, 1])
    plan = builder.build()
    assert len(plan.tasks_on(0)) == 2
    assert len(plan.tasks_on(0, COMPUTE_STREAM)) == 1
    assert len(plan.tasks_on(1, COMM_STREAM)) == 1


def test_validate_rejects_duplicate_ids():
    t1 = ComputeTask(task_id=0, gpu=0, stream="s", label="a", kernel=KERNEL)
    t2 = ComputeTask(task_id=0, gpu=0, stream="s", label="b", kernel=KERNEL)
    plan = ExecutionPlan(name="dup", tasks=[t1, t2])
    with pytest.raises(PlanError):
        plan.validate()


def test_validate_rejects_unknown_deps():
    t = ComputeTask(
        task_id=0,
        gpu=0,
        stream="s",
        label="a",
        deps=frozenset([99]),
        kernel=KERNEL,
    )
    plan = ExecutionPlan(name="unknown", tasks=[t])
    with pytest.raises(PlanError):
        plan.validate()


def test_validate_rejects_dependency_cycles():
    t1 = ComputeTask(
        task_id=0,
        gpu=0,
        stream="s",
        label="a",
        deps=frozenset([1]),
        kernel=KERNEL,
    )
    t2 = ComputeTask(
        task_id=1,
        gpu=1,
        stream="s",
        label="b",
        deps=frozenset([0]),
        kernel=KERNEL,
    )
    plan = ExecutionPlan(name="cycle", tasks=[t1, t2])
    with pytest.raises(PlanError, match="cycle"):
        plan.validate()


def test_validate_detects_cycle_through_stream_order():
    # Stream order adds the implicit edge t1 -> t2 (same gpu/stream);
    # the explicit dep t1 -> depends on t2 closes the loop.
    t1 = ComputeTask(
        task_id=0,
        gpu=0,
        stream="s",
        label="a",
        deps=frozenset([1]),
        kernel=KERNEL,
    )
    t2 = ComputeTask(task_id=1, gpu=0, stream="s", label="b", kernel=KERNEL)
    plan = ExecutionPlan(name="stream-cycle", tasks=[t1, t2])
    with pytest.raises(PlanError, match="cycle"):
        plan.validate()


def test_task_rejects_self_dependency():
    with pytest.raises(PlanError, match="itself"):
        ComputeTask(
            task_id=3,
            gpu=0,
            stream="s",
            label="self",
            deps=frozenset([3]),
            kernel=KERNEL,
        )


def test_compute_task_requires_kernel():
    with pytest.raises(PlanError, match="kernel"):
        ComputeTask(task_id=0, gpu=0, stream="s", label="nk")


def test_comm_task_requires_membership():
    builder = _builder()
    out = builder.add_collective(CollectiveKind.ALL_REDUCE, 1024.0, [0, 1])
    plan = builder.build()
    op = plan.tasks[0].op
    with pytest.raises(PlanError, match="not a participant"):
        CommTask(task_id=99, gpu=7, stream="s", label="bad", op=op)
    del out


def test_metadata_round_trips():
    builder = _builder()
    builder.metadata["strategy"] = "unit-test"
    builder.add_compute(0, KERNEL)
    plan = builder.build()
    assert plan.metadata["strategy"] == "unit-test"
    assert plan.num_tasks == 1


def test_collective_rejects_deps_keyed_to_non_participants():
    # A dep keyed to a GPU outside the collective used to vanish from
    # the plan without a trace.
    builder = _builder()
    a = builder.add_compute(0, KERNEL)
    with pytest.raises(PlanError, match=r"key 2 .*participant.*\[0, 1\]"):
        builder.add_collective(
            CollectiveKind.ALL_REDUCE, 1024.0, [0, 1], deps_by_gpu={2: [a]}
        )


def test_build_rejects_rank_outside_its_collective():
    builder = _builder()
    op = builder.begin_collective(CollectiveKind.SEND_RECV, 1024.0, [0, 1])
    builder.add_collective_rank(op, 0)
    builder.add_collective_rank(op, 3)
    with pytest.raises(PlanError, match="not a participant"):
        builder.build()


def test_build_rejects_unknown_deps():
    builder = _builder()
    builder.add_compute(0, KERNEL, deps=[5])
    with pytest.raises(PlanError, match=r"unknown deps \[5\]"):
        builder.build()


def test_task_rows_round_trip_through_ingestion():
    builder = _builder()
    a = builder.add_compute(0, KERNEL, phase="forward")
    out = builder.add_collective(
        CollectiveKind.ALL_REDUCE, 1024.0, [0, 1], deps_by_gpu={0: [a]}
    )
    builder.add_compute(1, KERNEL, deps=[out[1]], label="tail")
    plan = builder.build()
    copy = ExecutionPlan(name=plan.name, tasks=plan.tasks)
    copy.validate()
    assert copy.tasks == plan.tasks
    for column in ("gpus", "stream_ids", "labels", "phases", "categories",
                   "refs", "dep_ptr", "dep_ids", "kernels", "ops",
                   "stream_keys"):
        assert getattr(copy, column) == getattr(plan, column), column
    assert list(copy.task_ids) == list(plan.task_ids)
