"""Discrete-event engine: streams, dependencies, rendezvous, fluid rates."""

import pytest

from repro.collectives.primitives import CollectiveKind
from repro.errors import DeadlockError, PlanError, SimulationError
from repro.hw.datapath import FP16_TENSOR
from repro.hw.system import make_node
from repro.parallel.plan import ExecutionPlan, PlanBuilder
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator, simulate
from repro.sim.rates import isolated_duration
from repro.sim.task import COMM_STREAM, TaskCategory
from repro.units import MB
from repro.workloads.kernels import gemm_kernel

NODE = make_node("A100", 4)
KERNEL = gemm_kernel("k", 2048, 2048, 2048, FP16_TENSOR)
NO_POWER = SimConfig(trace_power=False)


def test_single_kernel_duration_matches_isolated_estimate():
    builder = PlanBuilder("one")
    builder.add_compute(0, KERNEL)
    result = simulate(NODE, builder.build(), NO_POWER)
    assert result.end_time_s == pytest.approx(
        isolated_duration(KERNEL, NODE.gpu), rel=1e-6
    )


def test_stream_serializes_kernels():
    builder = PlanBuilder("serial")
    for _ in range(3):
        builder.add_compute(0, KERNEL)
    result = simulate(NODE, builder.build(), NO_POWER)
    records = sorted(result.records, key=lambda r: r.start_s)
    assert len(records) == 3
    for prev, cur in zip(records, records[1:]):
        assert cur.start_s == pytest.approx(prev.end_s)


def test_different_gpus_run_in_parallel():
    builder = PlanBuilder("parallel")
    builder.add_compute(0, KERNEL)
    builder.add_compute(1, KERNEL)
    result = simulate(NODE, builder.build(), NO_POWER)
    assert result.end_time_s == pytest.approx(
        isolated_duration(KERNEL, NODE.gpu), rel=1e-6
    )


def test_cross_gpu_dependency_orders_execution():
    builder = PlanBuilder("dep")
    first = builder.add_compute(0, KERNEL)
    builder.add_compute(1, KERNEL, deps=[first])
    result = simulate(NODE, builder.build(), NO_POWER)
    recs = {r.gpu: r for r in result.records}
    assert recs[1].start_s == pytest.approx(recs[0].end_s)


def test_collective_rendezvous_waits_for_slowest_rank():
    builder = PlanBuilder("rendezvous")
    builder.add_compute(0, KERNEL)  # rank 0 computes first
    builder.add_collective(
        CollectiveKind.ALL_REDUCE, 64 * MB, [0, 1],
        deps_by_gpu={0: [0]},
    )
    result = simulate(NODE, builder.build(), NO_POWER)
    comm = result.records_for(category=TaskCategory.COMM)
    compute_end = result.records_for(category=TaskCategory.COMPUTE)[0].end_s
    for rec in comm:
        assert rec.start_s >= compute_end - 1e-9
        # Ranks finish together.
        assert rec.end_s == pytest.approx(comm[0].end_s)


def test_overlap_slows_compute():
    def run(with_comm):
        builder = PlanBuilder("ov" if with_comm else "plain")
        for _ in range(4):
            for g in range(NODE.num_gpus):
                builder.add_compute(g, KERNEL)
        if with_comm:
            for _ in range(3):
                builder.add_collective(
                    CollectiveKind.ALL_REDUCE,
                    256 * MB,
                    list(range(NODE.num_gpus)),
                    stream=COMM_STREAM,
                )
        return simulate(NODE, builder.build(), NO_POWER)

    plain = run(False).total_time(TaskCategory.COMPUTE)
    overlapped = run(True).total_time(TaskCategory.COMPUTE)
    assert overlapped > plain * 1.01


def test_ideal_mode_removes_contention():
    builder = PlanBuilder("ideal")
    for g in range(NODE.num_gpus):
        builder.add_compute(g, KERNEL)
    builder.add_collective(
        CollectiveKind.ALL_REDUCE, 256 * MB, list(range(NODE.num_gpus)),
        stream=COMM_STREAM,
    )
    plan = builder.build()
    contended = simulate(NODE, plan, NO_POWER)
    ideal = simulate(
        NODE, plan, SimConfig(contention_enabled=False, trace_power=False)
    )
    assert ideal.total_time(TaskCategory.COMPUTE) < contended.total_time(
        TaskCategory.COMPUTE
    )
    iso = isolated_duration(KERNEL, NODE.gpu)
    assert ideal.total_time(TaskCategory.COMPUTE) == pytest.approx(iso, rel=1e-6)


def test_deadlock_detected_for_unsatisfiable_collective():
    """A collective posted by only some ranks must deadlock (and the
    engine must say so, not hang)."""
    builder = PlanBuilder("deadlock")
    blocker = builder.add_compute(0, KERNEL)
    # Rank 1's comm task waits on a dep that only completes after the
    # collective it participates in... construct a true cycle via two
    # collectives posted in opposite orders on the two ranks' comm
    # streams (the classic mismatched-ordering deadlock).
    a = builder.add_collective(
        CollectiveKind.ALL_REDUCE, 8 * MB, [0, 1],
        deps_by_gpu={0: [blocker]}, label="A",
    )
    del a
    tasks = list(builder.build().tasks)
    # Remove rank 1's participation record to break the rendezvous.
    tasks = [
        t for t in tasks
        if not (t.gpu == 1 and t.category is TaskCategory.COMM)
    ]
    with pytest.raises(DeadlockError):
        simulate(NODE, ExecutionPlan("deadlock", tasks=tasks), NO_POWER)


def test_plan_validation_duplicate_ids():
    builder = PlanBuilder("dup")
    builder.add_compute(0, KERNEL)
    tasks = builder.build().tasks
    with pytest.raises(PlanError):
        Simulator(NODE, ExecutionPlan("dup", tasks=tasks + tasks), NO_POWER)


def test_gpu_out_of_range_rejected():
    builder = PlanBuilder("range")
    builder.add_compute(7, KERNEL)
    with pytest.raises(PlanError):
        Simulator(NODE, builder.build(), NO_POWER)


def test_empty_plan_rejected():
    with pytest.raises(PlanError):
        Simulator(NODE, ExecutionPlan("empty"), NO_POWER)


def test_jitter_changes_durations_deterministically():
    builder = PlanBuilder("jitter")
    builder.add_compute(0, KERNEL)
    plan = builder.build()
    a = simulate(NODE, plan, SimConfig(jitter_sigma=0.05, seed=1, trace_power=False))
    b = simulate(NODE, plan, SimConfig(jitter_sigma=0.05, seed=1, trace_power=False))
    c = simulate(NODE, plan, SimConfig(jitter_sigma=0.05, seed=2, trace_power=False))
    assert a.end_time_s == b.end_time_s  # deterministic per seed
    assert a.end_time_s != c.end_time_s  # varies across seeds


def test_power_segments_cover_run():
    builder = PlanBuilder("segments")
    builder.add_compute(0, KERNEL)
    result = simulate(NODE, builder.build(), SimConfig())
    segs = result.power_segments[0]
    assert segs[0].start_s == 0.0
    assert segs[-1].end_s == pytest.approx(result.end_time_s)
    for prev, cur in zip(segs, segs[1:]):
        assert cur.start_s == pytest.approx(prev.end_s)


def test_max_sim_time_guard():
    builder = PlanBuilder("timeout")
    big = gemm_kernel("big", 16384, 16384, 16384, FP16_TENSOR)
    for _ in range(10):
        builder.add_compute(0, big)
    with pytest.raises(SimulationError):
        simulate(NODE, builder.build(), SimConfig(max_sim_time_s=1e-4))


def test_finished_incremental_simulator_is_freed_without_cyclic_gc():
    """A run leaves no reference cycle through the simulator.

    The incremental engine holds closures over its per-run state; one
    that captured the simulator itself would form a cycle, and every
    finished simulator would then stay alive until the next cyclic
    collection (a memory cost across a sweep of thousands of cells).
    """
    import gc
    import weakref

    from repro.sim.engine import IncrementalSimulator

    builder = PlanBuilder("capped")
    for _ in range(3):
        for g in range(2):
            builder.add_compute(g, KERNEL)
        builder.add_collective(
            CollectiveKind.ALL_REDUCE, 64 * MB, [0, 1], stream=COMM_STREAM
        )
    plan = builder.build()
    config = SimConfig(power_limit_w=150.0, governor_period_s=5e-6)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        sim = IncrementalSimulator(make_node("A100", 2), plan, config)
        result = sim.run()
        assert result.min_clock_frac_seen < 1.0  # the cap bit
        alive = weakref.ref(sim)
        del sim
        assert alive() is None
    finally:
        if was_enabled:
            gc.enable()
