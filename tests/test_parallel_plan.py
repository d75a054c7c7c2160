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


# ----------------------------------------------------------------------
# the chain appender
# ----------------------------------------------------------------------

OTHER = gemm_kernel("other", 512, 256, 256, FP16_TENSOR)
THIRD = gemm_kernel("third", 256, 512, 256, FP16_TENSOR)


def _per_kernel(builder, gpu, kernels, deps, phase, labels):
    """Emit a chain the long way: one add_compute per kernel."""
    ids = []
    for index, kernel in enumerate(kernels):
        ids.append(
            builder.add_compute(
                gpu,
                kernel,
                deps=deps if index == 0 else (),
                phase=phase,
                label=labels[index] if labels else None,
            )
        )
    return ids


def _as_chain(builder, gpu, kernels, deps, phase, labels):
    return list(builder.add_chain(gpu, kernels, deps, phase=phase, labels=labels))


def _chained_plan(emit) -> ExecutionPlan:
    builder = PlanBuilder(name="chain-vs-rows")
    layer = (KERNEL, OTHER, THIRD)
    head = emit(builder, 0, (KERNEL,), [], "forward", ("head",))
    ar = builder.add_collective(
        CollectiveKind.ALL_REDUCE, 1024.0, [0, 1], deps_by_gpu={0: [head[-1]]}
    )
    # The same chain object on every GPU and for every microbatch.
    for _micro in range(2):
        for gpu in (0, 1):
            emit(builder, gpu, layer, [ar[gpu]], "backward", None)
    # Custom labels, and a repeated dependency that must collapse.
    emit(builder, 1, layer, [ar[0], ar[1], ar[0]], "optimizer", ("a", "b", "c"))
    return builder.build()


def test_chain_appender_matches_one_add_compute_per_kernel():
    rows = _chained_plan(_per_kernel)
    chained = _chained_plan(_as_chain)
    for column in ("gpus", "stream_ids", "labels", "phases", "categories",
                   "refs", "dep_ptr", "dep_ids", "kernels", "ops",
                   "stream_keys"):
        assert getattr(chained, column) == getattr(rows, column), column
    assert list(chained.task_ids) == list(rows.task_ids)
    assert chained.dep_rows() == rows.dep_rows()
    assert chained.tasks == rows.tasks
    assert chained.labels[0] == "head"
    assert chained.labels[-3:] == ["a", "b", "c"]
    assert chained.labels[3:6] == ["g0.k", "g0.other", "g0.third"]


def test_chain_returns_its_task_ids():
    builder = _builder()
    first = builder.add_compute(0, KERNEL)
    ids = builder.add_chain(1, (KERNEL, OTHER), deps=[first])
    assert list(ids) == [1, 2]
    plan = builder.build()
    assert plan.tasks[1].deps == frozenset([first])
    assert plan.tasks[2].deps == frozenset()


def test_chain_cache_holds_its_chains():
    # Each temporary tuple would be freed after its call, letting the
    # next one take its id; the builder holds every chain it resolved,
    # so a reused id cannot serve another chain's kernels.
    builder = _builder()
    for kernel in (KERNEL, OTHER, THIRD, KERNEL):
        builder.add_chain(0, tuple([kernel]))
    plan = builder.build()
    assert [task.kernel for task in plan.tasks] == [KERNEL, OTHER, THIRD, KERNEL]


def test_chain_rejects_empty_and_mislabelled_chains():
    builder = _builder()
    with pytest.raises(PlanError, match="empty kernel chain"):
        builder.add_chain(0, ())
    with pytest.raises(PlanError, match="2 labels for a chain of 1"):
        builder.add_chain(0, (KERNEL,), labels=("a", "b"))


def test_build_rejects_a_compute_row_without_kernel():
    builder = _builder()
    builder.add_compute(0, KERNEL)
    builder.add_compute(0, None, label="nk")
    with pytest.raises(PlanError, match="compute task nk: kernel required"):
        builder.build()
    chained = _builder()
    chained.add_chain(1, (KERNEL, None), labels=("a", "b"))
    with pytest.raises(PlanError, match="compute task b: kernel required"):
        chained.build()
