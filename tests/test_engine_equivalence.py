"""Engine equivalence: the incremental engine vs the reference oracle.

The incremental engine's whole contract is that skipping the clean
(non-dirty) parts of the recompute cannot change anything: records,
power segments, end time and minimum clock must be *exactly* equal —
no tolerances — to the full-recompute reference path, under jitter,
power capping, aggressive governor ticking and ideal mode alike.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.primitives import CollectiveKind
from repro.hw.datapath import FP16_TENSOR
from repro.hw.system import make_node
from repro.parallel.plan import PlanBuilder
from repro.sim.config import SimConfig
from repro.sim.engine import IncrementalSimulator, Simulator, make_simulator
from repro.sim.invariants import check_all
from repro.sim.rates import (
    RateModel,
    compute_rate,
    isolated_duration,
    sm_utilization,
)
from repro.sim.task import COMM_STREAM
from repro.units import MB
from repro.workloads.kernels import elementwise_kernel, gemm_kernel

NODES = {n: make_node("A100", n) for n in (1, 2, 4)}

KERNELS = [
    gemm_kernel("gemm-s", 256, 256, 256, FP16_TENSOR),
    gemm_kernel("gemm-m", 512, 512, 512, FP16_TENSOR),
    gemm_kernel("gemm-skinny", 2048, 128, 1024, FP16_TENSOR),
    elementwise_kernel("ew", 4e6, FP16_TENSOR),
]

COLLECTIVE_KINDS = [
    CollectiveKind.ALL_REDUCE,
    CollectiveKind.ALL_GATHER,
    CollectiveKind.REDUCE_SCATTER,
]


def _assert_identical(node, plan, config):
    """Run both engines; everything observable must be exactly equal."""
    ref = Simulator(
        node, plan, dataclasses.replace(config, reference_engine=True)
    )
    inc = IncrementalSimulator(node, plan, config)
    assert isinstance(
        make_simulator(node, plan, config), IncrementalSimulator
    )
    a = ref.run()
    b = inc.run()
    assert a.end_time_s == b.end_time_s
    assert a.records == b.records
    assert a.power_segments == b.power_segments
    assert a.min_clock_frac_seen == b.min_clock_frac_seen
    # Same event sequence, not just the same outcome: every push the
    # reference makes, the incremental engine makes too.
    assert inc.stats.events == ref.stats.events
    assert inc.stats.stale_events == ref.stats.stale_events
    check_all(b, plan.tasks, node.gpu.tdp_w)
    # The incremental engine must actually be incremental, not a
    # re-spelling of the full pass: on multi-GPU plans it may touch at
    # most as many (gpu, event) pairs as the reference.
    assert inc.stats.gpu_rate_passes <= ref.stats.gpu_rate_passes
    return a


@st.composite
def random_plans(draw):
    """Small random stream programs: computes, deps, collectives.

    Deps always point at earlier-created *compute* tasks and
    collectives span all GPUs in creation order, which keeps every
    generated plan deadlock-free by construction (the rendezvous
    ordering across comm streams is consistent).
    """
    num_gpus = draw(st.sampled_from([1, 2, 4]))
    builder = PlanBuilder("prop")
    compute_ids = []
    n_ops = draw(st.integers(min_value=2, max_value=14))
    for _ in range(n_ops):
        make_comm = num_gpus > 1 and draw(st.booleans())
        deps = []
        if compute_ids and draw(st.booleans()):
            deps = [draw(st.sampled_from(compute_ids))]
        if make_comm:
            payload = draw(st.sampled_from([2 * MB, 16 * MB, 96 * MB]))
            kind = draw(st.sampled_from(COLLECTIVE_KINDS))
            dep_gpu = draw(st.integers(0, num_gpus - 1))
            builder.add_collective(
                kind,
                payload,
                list(range(num_gpus)),
                deps_by_gpu={dep_gpu: deps} if deps else None,
                stream=COMM_STREAM,
            )
        else:
            gpu = draw(st.integers(0, num_gpus - 1))
            kernel = draw(st.sampled_from(KERNELS))
            tid = builder.add_compute(gpu, kernel, deps=deps)
            compute_ids.append(tid)
    if not builder.build().num_tasks:  # pragma: no cover - min_size=2
        builder.add_compute(0, KERNELS[0])
    config = SimConfig(
        contention_enabled=draw(st.booleans()),
        power_limit_w=draw(st.sampled_from([None, 250.0])),
        jitter_sigma=draw(st.sampled_from([0.0, 0.05])),
        seed=draw(st.integers(0, 3)),
        # A microsecond-scale tick makes the governor fire inside these
        # tiny programs, exercising the clock-dirty propagation path.
        governor_period_s=draw(st.sampled_from([2e-6, 2e-3])),
        trace_power=True,
    )
    return NODES[num_gpus], builder.build(), config


@settings(max_examples=30, deadline=None)
@given(random_plans())
def test_random_task_graphs_are_bit_identical(case):
    node, plan, config = case
    _assert_identical(node, plan, config)


def _overlap_plan(num_gpus, rounds=4):
    builder = PlanBuilder("overlap")
    prev = {}
    for r in range(rounds):
        for g in range(num_gpus):
            deps = [prev[g]] if g in prev else []
            prev[g] = builder.add_compute(g, KERNELS[1], deps=deps)
        builder.add_collective(
            CollectiveKind.ALL_REDUCE,
            64 * MB,
            list(range(num_gpus)),
            stream=COMM_STREAM,
        )
    return builder.build()


@pytest.mark.parametrize("num_gpus", [2, 4])
def test_overlapped_rounds_bit_identical(num_gpus):
    plan = _overlap_plan(num_gpus)
    result = _assert_identical(
        NODES[num_gpus],
        plan,
        SimConfig(jitter_sigma=0.02, seed=7, governor_period_s=5e-6),
    )
    assert len(result.records) == plan.num_tasks


def test_power_capped_real_plan_bit_identical():
    """A real FSDP plan under a biting power cap (governor active)."""
    from repro.core.experiment import ExperimentConfig
    from repro.exec.planning import default_planner

    cfg = ExperimentConfig(
        gpu="A100",
        model="gpt3-xl",
        batch_size=8,
        strategy="fsdp",
        num_gpus=2,
        jitter_sigma=0.02,
        power_limit_w=250.0,
    )
    planner = default_planner()
    node = planner.node_for(cfg)
    plan = planner.plan_for(cfg, overlap=True)
    config = cfg.sim_config(seed=3)
    assert not config.reference_engine
    result = _assert_identical(node, plan, config)
    # The cap must actually have throttled, or this test exercises
    # nothing clock-related.
    assert result.min_clock_frac_seen < 1.0


def test_pipeline_real_plan_bit_identical():
    """Pipeline send/recv (staggered rank posting — the spin path)."""
    from repro.core.experiment import ExperimentConfig
    from repro.exec.planning import default_planner

    cfg = ExperimentConfig(
        gpu="A100",
        model="gpt3-xl",
        batch_size=8,
        strategy="pipeline",
        num_gpus=4,
        jitter_sigma=0.02,
    )
    planner = default_planner()
    node = planner.node_for(cfg)
    plan = planner.plan_for(cfg, overlap=True)
    _assert_identical(node, plan, cfg.sim_config(seed=1))


def test_incremental_skips_unaffected_gpus():
    """Independent per-GPU work: the dirty set stays per-GPU sized."""
    num_gpus = 4
    builder = PlanBuilder("indep")
    for g in range(num_gpus):
        prev = None
        for _ in range(6):
            prev = builder.add_compute(
                g, KERNELS[0], deps=[prev] if prev is not None else []
            )
    plan = builder.build()
    node = NODES[num_gpus]
    config = SimConfig(trace_power=False)
    ref = Simulator(
        node, plan, dataclasses.replace(config, reference_engine=True)
    )
    inc = IncrementalSimulator(node, plan, config)
    a, b = ref.run(), inc.run()
    assert a.records == b.records
    # Reference touches every GPU on every event; the incremental
    # engine touches ~one (the finishing task's), so the gap must be
    # roughly the GPU count.
    assert inc.stats.gpu_rate_passes * 2 < ref.stats.gpu_rate_passes


def test_make_simulator_tier_selection():
    from repro.core.experiment import ExperimentConfig
    from repro.exec.planning import default_planner

    cfg = ExperimentConfig(
        gpu="A100", model="gpt3-xl", batch_size=8, num_gpus=2
    )
    planner = default_planner()
    node = planner.node_for(cfg)
    plan = planner.plan_for(cfg, overlap=True)
    base = cfg.sim_config(seed=0)
    assert type(make_simulator(node, plan, base)) is IncrementalSimulator
    assert (
        type(
            make_simulator(
                node,
                plan,
                dataclasses.replace(base, reference_engine=True),
            )
        )
        is Simulator
    )


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_rate_model_matches_module_functions(kernel):
    """RateModel's memoized math is the module functions, bit-for-bit."""
    gpu = NODES[4].gpu
    model = RateModel(gpu)
    for sm in (1.0, 0.4, 0.05):
        for bw in (gpu.memory.effective_bandwidth, 1e11):
            for clock in (1.0, 0.61):
                expected = compute_rate(kernel, gpu, sm, bw, clock)
                assert model.compute_rate(kernel, sm, bw, clock) == expected
                assert (
                    model.sm_utilization(kernel, expected, sm, clock)
                    == sm_utilization(kernel, gpu, expected, sm, clock)
                )
    assert model.isolated_duration(kernel) == isolated_duration(kernel, gpu)
    free = compute_rate(
        kernel, gpu, 1.0, gpu.memory.effective_bandwidth, 0.77
    )
    assert model.free_utilization(kernel, 0.77) == sm_utilization(
        kernel, gpu, free, 1.0, 0.77
    )
    # Second lookup is the memo hit; value must be unchanged.
    assert model.free_utilization(kernel, 0.77) == sm_utilization(
        kernel, gpu, free, 1.0, 0.77
    )


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_rate_model_param_helpers_are_bit_exact(kernel):
    """The engine's pre-resolved param path equals the module math."""
    gpu = NODES[4].gpu
    model = RateModel(gpu)
    peak_eff, ai, _ = model.kernel_row(kernel)
    assert ai == kernel.arithmetic_intensity
    for sm in (1.0, 0.4, 0.05):
        for bw in (gpu.memory.effective_bandwidth, 1e11):
            for clock in (1.0, 0.61):
                expected = compute_rate(kernel, gpu, sm, bw, clock)
                assert (
                    RateModel.rate_from_params(peak_eff, ai, sm, bw, clock)
                    == expected
                )
                assert RateModel.sm_utilization_from_params(
                    peak_eff, expected, sm, clock
                ) == sm_utilization(kernel, gpu, expected, sm, clock)
