"""The prepared-simulation layer: interning, caching, shared reuse.

The contract under test is the one that makes cross-cell sharing safe:

* Kernel construction is hash-consed — value-equal specs are the
  *same object*, so every identity-keyed memo downstream (rate
  tables, the prep layer's per-kernel rows) hits across plans.
* ``prepare()`` is memoized on identity + sim-relevant scalars, and
  a :class:`PreparedSim` is immutable in practice: any number of
  simulator runs (same engine or mixed engines, sequential or
  repeated) over one shared instance must produce bit-for-bit the results of
  fully isolated runs.
* The per-run arena recycles mutable state between runs without any
  observable carry-over.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.primitives import CollectiveKind
from repro.errors import PlanError
from repro.hw.datapath import FP16_TENSOR, FP32_VECTOR
from repro.hw.system import make_node
from repro.parallel.plan import ExecutionPlan, PlanBuilder
from repro.sim.config import SimConfig
from repro.sim.engine import IncrementalSimulator, Simulator
from repro.sim import prep as prep_module
from repro.sim.prep import prep_stats, prepare, reset_prepared
from repro.sim.rates import RateModel, isolated_duration
from repro.sim.task import COMM_STREAM
from repro.units import MB
from repro.workloads.kernels import (
    KernelSpec,
    elementwise_kernel,
    gemm_kernel,
    intern_kernel,
    reset_kernel_intern,
)

NODE = make_node("A100", 2)


def _plan(rounds=3, num_gpus=2):
    builder = PlanBuilder("prep")
    kernels = [
        gemm_kernel("gemm", 512, 512, 512, FP16_TENSOR),
        elementwise_kernel("ew", 4e6, FP16_TENSOR),
    ]
    prev = {}
    for r in range(rounds):
        for g in range(num_gpus):
            deps = [prev[g]] if g in prev else []
            prev[g] = builder.add_compute(
                g, kernels[r % len(kernels)], deps=deps
            )
        builder.add_collective(
            CollectiveKind.ALL_REDUCE,
            32 * MB,
            list(range(num_gpus)),
            stream=COMM_STREAM,
        )
    return builder.build()


# ----------------------------------------------------------------------
# kernel hash-consing
# ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=4096),
    n=st.integers(min_value=1, max_value=4096),
    k=st.integers(min_value=1, max_value=4096),
)
def test_gemm_construction_is_hash_consed(m, n, k):
    a = gemm_kernel("g", m, n, k, FP16_TENSOR)
    b = gemm_kernel("g", m, n, k, FP16_TENSOR)
    assert a is b
    # A different shape (or path) must not alias.
    c = gemm_kernel("g", m, n, k + 1, FP16_TENSOR)
    assert c is not a
    d = gemm_kernel("g", m, n, k, FP32_VECTOR)
    assert d is not a


def test_intern_kernel_canonicalizes_equal_specs():
    reset_kernel_intern()
    a = gemm_kernel("x", 128, 128, 128, FP16_TENSOR)
    # A structurally equal spec built by hand interns to the same
    # canonical object.
    clone = KernelSpec(
        name=a.name,
        kind=a.kind,
        flops=a.flops,
        bytes_moved=a.bytes_moved,
        path=a.path,
        efficiency=a.efficiency,
    )
    assert clone is not a
    assert intern_kernel(clone) is a


def test_scaled_kernels_are_interned():
    a = gemm_kernel("s", 256, 256, 256, FP16_TENSOR)
    assert a.scaled(0.5) is a.scaled(0.5)
    assert a.scaled(0.5) is not a


# ----------------------------------------------------------------------
# prepare() memoization
# ----------------------------------------------------------------------


def test_prepare_is_memoized_per_plan_and_scalars():
    reset_prepared()
    plan = _plan()
    before = prep_stats()
    p1 = prepare(NODE, plan, seed=3, jitter_sigma=0.01)
    p2 = prepare(NODE, plan, seed=3, jitter_sigma=0.01)
    assert p1 is p2
    after = prep_stats()
    assert after["builds"] == before["builds"] + 1
    assert after["hits"] == before["hits"] + 1
    # Any sim-relevant scalar busts the key.
    assert prepare(NODE, plan, seed=4, jitter_sigma=0.01) is not p1
    assert prepare(NODE, plan, seed=3, jitter_sigma=0.02) is not p1
    assert (
        prepare(NODE, plan, seed=3, jitter_sigma=0.01, max_clock_frac=0.9)
        is not p1
    )


def test_prepare_validates_like_the_simulator():
    with pytest.raises(PlanError):
        prepare(NODE, ExecutionPlan("empty"), seed=0)


def test_mismatched_prepared_is_rejected():
    plan = _plan()
    prep = prepare(NODE, plan, seed=1)
    with pytest.raises(PlanError):
        IncrementalSimulator(
            NODE, plan, SimConfig(seed=2), prepared=prep
        )
    other = _plan(rounds=2)
    with pytest.raises(PlanError):
        IncrementalSimulator(
            NODE, other, SimConfig(seed=1), prepared=prep
        )
    # The tables copy calibration factors and the collective costs
    # derive from them, so a recalibrated node must not reuse them.
    recalibrated = dataclasses.replace(
        NODE,
        calibration=dataclasses.replace(
            NODE.calibration,
            spin_sm_scale=0.3,
            interference_factor=0.2,
            stall_power_frac=0.5,
        ),
    )
    with pytest.raises(PlanError):
        IncrementalSimulator(
            recalibrated, plan, SimConfig(seed=1), prepared=prep
        )
    # Calibrations compare by value: an equal copy is the same node.
    copied = dataclasses.replace(
        NODE, calibration=dataclasses.replace(NODE.calibration)
    )
    IncrementalSimulator(copied, plan, SimConfig(seed=1), prepared=prep)


# ----------------------------------------------------------------------
# shared PreparedSim == isolated runs, bit for bit
# ----------------------------------------------------------------------


def _observables(result):
    return (
        result.end_time_s,
        result.records,
        result.power_segments,
        result.min_clock_frac_seen,
    )


@pytest.mark.parametrize("engine_cls", [Simulator, IncrementalSimulator])
def test_shared_prepared_matches_isolated_runs(engine_cls):
    plan = _plan(rounds=4)
    config = SimConfig(jitter_sigma=0.02, seed=11, governor_period_s=5e-6)
    if engine_cls is Simulator:
        config = dataclasses.replace(config, reference_engine=True)
    # Isolated baseline: fresh prep layer, its own prepared sim.
    reset_prepared()
    baseline = _observables(engine_cls(NODE, plan, config).run())
    # N simulators sharing one explicit PreparedSim, run back to back
    # (the arena recycles run state between them).
    reset_prepared()
    prep = prepare(
        NODE,
        plan,
        seed=config.seed,
        jitter_sigma=config.jitter_sigma,
        max_clock_frac=config.max_clock_frac,
    )
    for _ in range(3):
        sim = engine_cls(NODE, plan, config, prepared=prep)
        assert sim.prepared is prep
        assert _observables(sim.run()) == baseline


def test_prepared_survives_mixed_engines():
    """One prepared sim serves both engines alternately."""
    plan = _plan(rounds=4)
    config = SimConfig(jitter_sigma=0.01, seed=5)
    reference_cfg = dataclasses.replace(config, reference_engine=True)
    prep = prepare(
        NODE, plan, seed=5, jitter_sigma=0.01, max_clock_frac=1.0
    )
    first = _observables(
        IncrementalSimulator(NODE, plan, config, prepared=prep).run()
    )
    reference = _observables(
        Simulator(NODE, plan, reference_cfg, prepared=prep).run()
    )
    # Neither run perturbed the shared tables: the incremental engine
    # reproduces its result exactly afterwards, and both engines agree.
    again = _observables(
        IncrementalSimulator(NODE, plan, config, prepared=prep).run()
    )
    assert first == reference == again


def test_prepared_tables_are_shared_across_simulators():
    plan = _plan()
    prep = prepare(NODE, plan, seed=0, jitter_sigma=0.0)
    a = IncrementalSimulator(NODE, plan, SimConfig(), prepared=prep)
    b = IncrementalSimulator(NODE, plan, SimConfig(), prepared=prep)
    # Every prepared per-row, per-kernel and per-op table.
    assert a._work is b._work
    assert a._isolated is b._isolated
    assert a._kernels is b._kernels
    assert a._peak_eff is b._peak_eff
    assert a._ai is b._ai
    assert a._comm_cost is b._comm_cost
    assert a._deps is b._deps
    assert a._wake_streams is b._wake_streams
    assert a._rates is b._rates
    assert a.streams is b.streams
    assert a.plan is b.plan


# ----------------------------------------------------------------------
# kernel rows keyed on physics
# ----------------------------------------------------------------------


def test_kernels_differing_only_in_name_share_one_kernel_row():
    gpu = NODE.gpu
    first = gemm_kernel("L0.qkv", 2048, 6144, 2048, FP16_TENSOR)
    second = gemm_kernel("L1.qkv", 2048, 6144, 2048, FP16_TENSOR)
    assert first != second and first.physics == second.physics
    model = RateModel(gpu)
    row = model.kernel_row(first)
    assert model.kernel_row(second) is row
    assert len(model._rows) == len(model._peak_eff) == len(model._iso) == 1
    # The floats are the piecewise path's, on a model that never saw
    # the first kernel, and the module-level reference formulas'.
    fresh = RateModel(gpu)
    assert row == (
        fresh._peak_eff_for(second),
        second.arithmetic_intensity,
        fresh.isolated_duration(second),
    )
    assert row[2] == isolated_duration(second, gpu)
    other = gemm_kernel("L0.qkv", 2048, 6144, 1024, FP16_TENSOR)
    assert model.kernel_row(other) != row


def test_per_kernel_memos_are_bounded():
    model = RateModel(NODE.gpu)
    model._MAX_ENTRIES = 2
    for k in range(1, 6):
        kernel = gemm_kernel(f"b{k}", 256 * k, 256, 256, FP16_TENSOR)
        model.kernel_row(kernel)
        model.free_utilization(kernel, 0.9)
        for memo in (model._rows, model._peak_eff, model._iso, model._free_util):
            assert len(memo) <= 2


def test_jitter_memo_keeps_a_bounded_number_of_seeds():
    """A long-lived process preparing under many seeds keeps at most
    the cap's worth of (seed, sigma) tables, and an evicted seed's
    redraws equal its first draws."""
    reset_prepared()
    cap = prep_module._SHARED_EVALUATORS_MAX
    plan = _plan()
    before = prepare(NODE, plan, seed=0, jitter_sigma=0.05)
    for seed in range(1, cap + 2):
        prepare(NODE, plan, seed=seed, jitter_sigma=0.05)
        assert len(prep_module._JITTER_MEMO) <= cap
    assert (0, 0.05) not in prep_module._JITTER_MEMO
    # A fresh plan of the same layout misses the prepared-sim cache
    # and redraws seed 0's factors from scratch.
    after = prepare(NODE, _plan(), seed=0, jitter_sigma=0.05)
    assert after is not before
    assert after.work == before.work
    assert after.isolated == before.isolated
    reset_prepared()
