"""Discrete-event engine: streams, dependencies, rendezvous, fluid rates."""

import dataclasses

import pytest

from repro.collectives.primitives import CollectiveKind
from repro.errors import DeadlockError, PlanError, SimulationError
from repro.hw.datapath import FP16_TENSOR
from repro.hw.system import make_node
from repro.parallel.plan import ExecutionPlan, PlanBuilder
from repro.sim.config import SimConfig
from repro.sim.engine import IncrementalSimulator, Simulator, simulate
from repro.sim.perturb import PerturbationSpec
from repro.sim.rates import isolated_duration
from repro.sim.task import COMM_STREAM, COMPUTE_STREAM, TaskCategory
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


# ----------------------------------------------------------------------
# the incremental engine's same-stream hand-off
# ----------------------------------------------------------------------

SMALL = gemm_kernel("small", 1024, 1024, 1024, FP16_TENSOR)
BIG = gemm_kernel("big", 4096, 4096, 4096, FP16_TENSOR)
#: A power cap and a governor tick short enough to interleave ticks,
#: clock moves and finishes.
CAPPED = SimConfig(power_limit_w=150.0, governor_period_s=20e-6)


def _handoffs(
    plan, config=CAPPED, ref_cls=Simulator, inc_cls=IncrementalSimulator
):
    """Run both engines bit-identically; the incremental hand-offs."""
    ref_config = dataclasses.replace(config, reference_engine=True)
    ref = ref_cls(NODE, plan, ref_config)
    inc = inc_cls(NODE, plan, config)
    a, b = ref.run(), inc.run()
    assert a.end_time_s == b.end_time_s
    assert a.records == b.records
    assert a.power_segments == b.power_segments
    assert a.min_clock_frac_seen == b.min_clock_frac_seen
    assert inc.stats.events == ref.stats.events
    assert inc.stats.stale_events == ref.stats.stale_events
    assert ref.stats.handoffs == 0
    return inc.stats.handoffs


def test_handoff_launches_a_ready_compute_head():
    builder = PlanBuilder("ready")
    for _ in range(3):
        builder.add_compute(0, KERNEL)
    # The first two finishes hand off; the third is the run's last.
    assert _handoffs(builder.build()) == 2


def test_handoff_leaves_a_head_that_waits_on_another_stream():
    builder = PlanBuilder("waits")
    long_task = builder.add_compute(0, BIG)
    builder.add_compute(1, SMALL)
    builder.add_compute(1, KERNEL, deps=[long_task])
    # SMALL's finish hands off and launches nothing; BIG's wakes two
    # streams; the dependent's is the run's last.
    assert _handoffs(builder.build()) == 1


def test_collective_rank_head_takes_the_general_path():
    builder = PlanBuilder("rank-head")
    builder.add_compute(0, SMALL)
    builder.add_compute(0, SMALL)
    builder.add_collective(
        CollectiveKind.ALL_REDUCE, 16 * MB, [0, 1], stream=COMPUTE_STREAM
    )
    builder.add_compute(0, SMALL)
    # Only the first finish hands off: the second exposes a rank, and
    # the kernel after the collective is the run's last.
    assert _handoffs(builder.build()) == 1


def test_two_woken_streams_take_the_general_path():
    builder = PlanBuilder("two-wake")
    first = builder.add_compute(0, KERNEL)
    builder.add_compute(0, SMALL)
    builder.add_compute(1, KERNEL, deps=[first])
    # The first finish wakes both streams although its own head is
    # ready; SMALL's exhausts its stream and hands off; the last is
    # the run's last.
    assert _handoffs(builder.build()) == 1


def test_last_task_takes_the_general_path():
    builder = PlanBuilder("last")
    builder.add_compute(0, KERNEL)
    assert _handoffs(builder.build()) == 0


def test_handoff_under_an_open_straggler_window():
    builder = PlanBuilder("straggler")
    for _ in range(3):
        builder.add_compute(0, KERNEL)
    builder.add_compute(1, BIG)
    window = PerturbationSpec(
        kind="straggler_rank", target="gpu:0", start_s=50e-6, magnitude=0.5
    )
    config = dataclasses.replace(CAPPED, perturbations=(window,))
    # The window opens during GPU 0's first kernel. All three of its
    # finishes hand off (the third empties the stream); BIG's ends the
    # run.
    assert _handoffs(builder.build(), config) == 3


class _LapsedTick:
    """Leaves the last GPU's tick unarmed at the first tick upkeep, as
    if its governor came up late."""

    _lapsed = False

    def _ensure_ticks(self):
        if self._lapsed:
            return super()._ensure_ticks()
        self._lapsed = True
        last = len(self._governors) - 1
        self._tick_pending[last] = True
        self._ticks_outstanding += 1
        super()._ensure_ticks()
        self._tick_pending[last] = False
        self._ticks_outstanding -= 1
        return None


class _LapsedReference(_LapsedTick, Simulator):
    pass


class _LapsedIncremental(_LapsedTick, IncrementalSimulator):
    pass


def test_handoff_rearms_a_lapsed_tick():
    """The hand-off makes the upkeep's tick check: the first finish
    precedes the first tick and must re-arm the lapsed GPU's tick at
    its own time, as the reference's upkeep does."""
    builder = PlanBuilder("lapsed")
    for _ in range(6):
        builder.add_compute(0, SMALL)
    builder.add_compute(NODE.num_gpus - 1, BIG)
    config = dataclasses.replace(CAPPED, governor_period_s=50e-6)
    assert isolated_duration(SMALL, NODE.gpu) < config.governor_period_s
    # Every SMALL finish hands off; BIG's ends the run.
    assert _handoffs(
        builder.build(), config, _LapsedReference, _LapsedIncremental
    ) == 6
