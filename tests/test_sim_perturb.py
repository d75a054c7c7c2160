"""Perturbation injector: spec validation + cross-engine equivalence.

The degradation axes (stragglers, slow HBM, flaky links, thermal
throttling) ride the same bit-exact contract as every other engine
feature: under any perturbation schedule the incremental engine must
match the full-recompute reference exactly. The specs themselves are
config: they validate eagerly, round-trip through JSON, and hash into
job cache keys.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.primitives import CollectiveKind
from repro.errors import ConfigurationError
from repro.hw.datapath import FP16_TENSOR
from repro.hw.system import make_node
from repro.parallel.plan import PlanBuilder
from repro.sim.config import SimConfig
from repro.sim.engine import IncrementalSimulator, Simulator
from repro.sim.invariants import check_all
from repro.sim.perturb import (
    PERTURBATION_KINDS,
    PerturbationSpec,
    normalize_perturbations,
)
from repro.sim.task import COMM_STREAM
from repro.units import MB
from repro.workloads.kernels import elementwise_kernel, gemm_kernel

NODES = {n: make_node("A100", n) for n in (1, 2, 4)}

KERNELS = [
    gemm_kernel("gemm-s", 256, 256, 256, FP16_TENSOR),
    gemm_kernel("gemm-m", 512, 512, 512, FP16_TENSOR),
    elementwise_kernel("ew", 4e6, FP16_TENSOR),
]


# ----------------------------------------------------------------------
# spec validation and normalization
# ----------------------------------------------------------------------


def test_spec_defaults_and_round_trip():
    spec = PerturbationSpec(kind="straggler_rank")
    assert spec.target == "all"
    assert spec.start_s == 0.0
    assert math.isinf(spec.duration_s)
    assert math.isinf(spec.end_s)
    again = PerturbationSpec.from_value(spec.to_dict())
    assert again == spec
    # from_value passes an existing spec through untouched.
    assert PerturbationSpec.from_value(spec) is spec


@pytest.mark.parametrize("kind", PERTURBATION_KINDS)
def test_every_kind_constructs(kind):
    spec = PerturbationSpec(kind=kind, magnitude=0.5)
    assert spec.kind == kind


def test_spec_rejects_bad_fields():
    with pytest.raises(ConfigurationError):
        PerturbationSpec(kind="meteor_strike")
    with pytest.raises(ConfigurationError):
        PerturbationSpec(kind="straggler_rank", start_s=-1.0)
    with pytest.raises(ConfigurationError):
        PerturbationSpec(kind="straggler_rank", start_s=math.inf)
    with pytest.raises(ConfigurationError):
        PerturbationSpec(kind="straggler_rank", duration_s=0.0)
    with pytest.raises(ConfigurationError):
        PerturbationSpec(kind="straggler_rank", magnitude=0.0)
    # A full derate would zero the compute rate (no finish ever): the
    # strict kinds cap magnitude strictly below 1.
    with pytest.raises(ConfigurationError):
        PerturbationSpec(kind="straggler_rank", magnitude=1.0)
    with pytest.raises(ConfigurationError):
        PerturbationSpec(kind="thermal_throttle", magnitude=1.0)
    # A link outage is a modeled, recoverable state: 1.0 is legal.
    assert PerturbationSpec(kind="flaky_link", magnitude=1.0)
    with pytest.raises(ConfigurationError):
        PerturbationSpec(kind="flaky_link", magnitude=1.5)


def test_target_grammar():
    assert PerturbationSpec(kind="slow_hbm").target_gpus(4) == (0, 1, 2, 3)
    spec = PerturbationSpec(kind="slow_hbm", target="gpu:1,3")
    assert spec.target_gpus(4) == (1, 3)
    # Out-of-range indices drop silently (the same spec sweeps across
    # node sizes); a fully out-of-range target is simply inert.
    assert spec.target_gpus(2) == (1,)
    assert PerturbationSpec(kind="slow_hbm", target="gpu:5").target_gpus(2) == ()
    for bad in ("gpu:", "gpu:x", "node:0", "", "gpu:-1"):
        with pytest.raises(ConfigurationError):
            PerturbationSpec(kind="slow_hbm", target=bad)


def test_from_value_rejects_junk():
    with pytest.raises(ConfigurationError):
        PerturbationSpec.from_value({"magnitude": 0.5})  # no kind
    with pytest.raises(ConfigurationError):
        PerturbationSpec.from_value(
            {"kind": "slow_hbm", "severity": 0.5}  # unknown key
        )
    with pytest.raises(ConfigurationError):
        PerturbationSpec.from_value("straggler_rank")


def test_normalize_perturbations():
    assert normalize_perturbations(None) == ()
    assert normalize_perturbations(()) == ()
    one = PerturbationSpec(kind="slow_hbm")
    assert normalize_perturbations(one) == (one,)
    mixed = normalize_perturbations(
        [one, {"kind": "flaky_link", "magnitude": 1.0}]
    )
    assert [s.kind for s in mixed] == ["slow_hbm", "flaky_link"]


# ----------------------------------------------------------------------
# bit-exact equivalence under random perturbation schedules
# ----------------------------------------------------------------------


def _assert_identical(node, plan, config):
    ref = Simulator(
        node, plan, dataclasses.replace(config, reference_engine=True)
    )
    inc = IncrementalSimulator(node, plan, config)
    a = ref.run()
    b = inc.run()
    assert a.end_time_s == b.end_time_s
    assert a.records == b.records
    assert a.power_segments == b.power_segments
    assert a.min_clock_frac_seen == b.min_clock_frac_seen
    assert inc.stats.events == ref.stats.events
    assert inc.stats.stale_events == ref.stats.stale_events
    check_all(b, plan.tasks, node.gpu.tdp_w)
    return a


@st.composite
def random_specs(draw):
    """A short schedule of valid, bounded-magnitude perturbations."""
    specs = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        specs.append(
            PerturbationSpec(
                kind=draw(st.sampled_from(PERTURBATION_KINDS)),
                target=draw(st.sampled_from(["all", "gpu:0", "gpu:1,3"])),
                start_s=draw(st.sampled_from([0.0, 1e-5, 1e-3])),
                duration_s=draw(
                    st.sampled_from([5e-5, 2e-3, math.inf])
                ),
                # Capped at 0.9 even for flaky_link: an infinite-duration
                # full outage would (correctly) stall the plan into the
                # simulation wall.
                magnitude=draw(st.sampled_from([0.2, 0.5, 0.9])),
            )
        )
    return tuple(specs)


@st.composite
def random_perturbed_plans(draw):
    """Small random stream programs plus a perturbation schedule."""
    num_gpus = draw(st.sampled_from([2, 4]))
    builder = PlanBuilder("perturb-prop")
    compute_ids = []
    for _ in range(draw(st.integers(min_value=2, max_value=10))):
        if draw(st.booleans()):
            builder.add_collective(
                draw(
                    st.sampled_from(
                        [CollectiveKind.ALL_REDUCE, CollectiveKind.ALL_GATHER]
                    )
                ),
                draw(st.sampled_from([2 * MB, 16 * MB])),
                list(range(num_gpus)),
                stream=COMM_STREAM,
            )
        else:
            deps = []
            if compute_ids and draw(st.booleans()):
                deps = [draw(st.sampled_from(compute_ids))]
            compute_ids.append(
                builder.add_compute(
                    draw(st.integers(0, num_gpus - 1)),
                    draw(st.sampled_from(KERNELS)),
                    deps=deps,
                )
            )
    config = SimConfig(
        contention_enabled=draw(st.booleans()),
        power_limit_w=draw(st.sampled_from([None, 250.0])),
        jitter_sigma=draw(st.sampled_from([0.0, 0.05])),
        seed=draw(st.integers(0, 3)),
        governor_period_s=draw(st.sampled_from([2e-6, 2e-3])),
        perturbations=draw(random_specs()),
    )
    return NODES[num_gpus], builder.build(), config


@settings(max_examples=25, deadline=None)
@given(random_perturbed_plans())
def test_perturbed_random_plans_bit_identical(case):
    node, plan, config = case
    _assert_identical(node, plan, config)


def _real_plan(strategy, num_gpus, perturbations, power_limit_w=None):
    from repro.core.experiment import ExperimentConfig
    from repro.exec.planning import default_planner

    cfg = ExperimentConfig(
        gpu="A100",
        model="gpt3-xl",
        batch_size=8,
        strategy=strategy,
        num_gpus=num_gpus,
        jitter_sigma=0.02,
        power_limit_w=power_limit_w,
        perturbations=perturbations,
    )
    planner = default_planner()
    return planner.node_for(cfg), planner.plan_for(cfg, overlap=True), cfg


def test_perturbed_power_capped_real_plan_bit_identical():
    """All four kinds at once, under a biting cap, on a real plan."""
    specs = (
        {"kind": "straggler_rank", "target": "gpu:1", "magnitude": 0.4},
        {"kind": "slow_hbm", "target": "gpu:0", "start_s": 0.005,
         "duration_s": 0.05, "magnitude": 0.5},
        {"kind": "flaky_link", "target": "gpu:0", "start_s": 0.002,
         "duration_s": 0.03, "magnitude": 1.0},
        {"kind": "thermal_throttle", "magnitude": 0.3},
    )
    node, plan, cfg = _real_plan("fsdp", 2, specs, power_limit_w=250.0)
    config = cfg.sim_config(seed=3)
    result = _assert_identical(node, plan, config)
    # The thermal ceiling must actually have bitten.
    assert result.min_clock_frac_seen <= 0.7


# ----------------------------------------------------------------------
# physical effects
# ----------------------------------------------------------------------


#: Compute-bound + memory-bound + communication in every round, so
#: each perturbation kind has a resource it visibly throttles.
_BIG_GEMM = gemm_kernel("gemm-big", 2048, 2048, 2048, FP16_TENSOR)
_BIG_EW = elementwise_kernel("ew-big", 4e8, FP16_TENSOR)


def _serial_plan(num_gpus=2, rounds=4):
    builder = PlanBuilder("chain")
    prev = {}
    for _ in range(rounds):
        for g in range(num_gpus):
            deps = [prev[g]] if g in prev else []
            head = builder.add_compute(g, _BIG_GEMM, deps=deps)
            prev[g] = builder.add_compute(g, _BIG_EW, deps=[head])
        builder.add_collective(
            CollectiveKind.ALL_REDUCE,
            4 * MB,
            list(range(num_gpus)),
            stream=COMM_STREAM,
        )
    return builder.build()


@pytest.mark.parametrize(
    "kind, magnitude",
    [
        ("straggler_rank", 0.5),
        ("slow_hbm", 0.7),
        ("flaky_link", 0.9),
        ("thermal_throttle", 0.5),
    ],
)
def test_each_kind_slows_the_run(kind, magnitude):
    node = NODES[2]
    plan = _serial_plan()
    base = SimConfig(trace_power=False)
    healthy = IncrementalSimulator(node, plan, base).run()
    spec = PerturbationSpec(kind=kind, magnitude=magnitude)
    perturbed_config = dataclasses.replace(base, perturbations=(spec,))
    sim = IncrementalSimulator(node, plan, perturbed_config)
    perturbed = sim.run()
    assert perturbed.end_time_s > healthy.end_time_s
    assert sim.stats.perturb_events >= 1
    if kind == "thermal_throttle":
        assert perturbed.min_clock_frac_seen <= 1.0 - magnitude


def test_straggler_slows_ideal_mode_too():
    """Degradation applies even with contention (and DVFS) disabled."""
    node = NODES[2]
    plan = _serial_plan()
    base = SimConfig(contention_enabled=False, trace_power=False)
    healthy = IncrementalSimulator(node, plan, base).run()
    spec = PerturbationSpec(kind="straggler_rank", magnitude=0.5)
    perturbed = IncrementalSimulator(
        node, plan, dataclasses.replace(base, perturbations=(spec,))
    ).run()
    assert perturbed.end_time_s > healthy.end_time_s


def test_window_after_end_of_run_is_inert():
    node = NODES[2]
    plan = _serial_plan()
    base = SimConfig(trace_power=False)
    healthy = IncrementalSimulator(node, plan, base).run()
    late = PerturbationSpec(
        kind="straggler_rank",
        start_s=healthy.end_time_s + 1.0,
        duration_s=1.0,
        magnitude=0.9,
    )
    perturbed = IncrementalSimulator(
        node, plan, dataclasses.replace(base, perturbations=(late,))
    ).run()
    assert perturbed.end_time_s == healthy.end_time_s
    assert perturbed.records == healthy.records


def test_out_of_range_target_is_inert():
    node = NODES[2]
    plan = _serial_plan()
    base = SimConfig(trace_power=False)
    healthy = IncrementalSimulator(node, plan, base).run()
    spec = PerturbationSpec(
        kind="straggler_rank", target="gpu:7", magnitude=0.9
    )
    sim = IncrementalSimulator(
        node, plan, dataclasses.replace(base, perturbations=(spec,))
    )
    result = sim.run()
    assert sim.stats.perturb_events == 0
    assert result.records == healthy.records


def test_bounded_window_recovers():
    """After PERTURB_END the run proceeds at healthy rates."""
    node = NODES[2]
    plan = _serial_plan(rounds=6)
    base = SimConfig(trace_power=False)
    healthy = IncrementalSimulator(node, plan, base).run()
    brief = PerturbationSpec(
        kind="straggler_rank",
        start_s=0.0,
        duration_s=healthy.end_time_s / 20.0,
        magnitude=0.9,
    )
    forever = dataclasses.replace(brief, duration_s=math.inf)
    brief_end = IncrementalSimulator(
        node, plan, dataclasses.replace(base, perturbations=(brief,))
    ).run().end_time_s
    forever_end = IncrementalSimulator(
        node, plan, dataclasses.replace(base, perturbations=(forever,))
    ).run().end_time_s
    assert healthy.end_time_s < brief_end < forever_end


# ----------------------------------------------------------------------
# config plumbing: cache keys, --set, sweep axis
# ----------------------------------------------------------------------


def _exp_config(**kwargs):
    from repro.core.experiment import ExperimentConfig

    return ExperimentConfig(
        gpu="A100", model="gpt3-xl", batch_size=8, strategy="fsdp",
        num_gpus=2, **kwargs
    )


def test_perturbations_hash_into_cache_keys():
    from repro.exec.job import SimJob

    base = SimJob(config=_exp_config())
    empty = SimJob(config=_exp_config(perturbations=[]))
    spec = {"kind": "straggler_rank", "target": "gpu:0", "magnitude": 0.3}
    perturbed = SimJob(config=_exp_config(perturbations=[spec]))
    stronger = SimJob(
        config=_exp_config(perturbations=[dict(spec, magnitude=0.4)])
    )
    # The fault-free default must keep its pre-existing key.
    assert empty.cache_key() == base.cache_key()
    assert perturbed.cache_key() != base.cache_key()
    assert stronger.cache_key() != perturbed.cache_key()
    assert "+1pert" in perturbed.config.describe()


def test_set_override_reaches_the_sim_config():
    from repro.harness.figures.fig9 import scenario_spec
    from repro.scenario.runner import override_spec, parse_set_overrides

    overrides = parse_set_overrides(
        ['perturbations=[{"kind": "slow_hbm", "magnitude": 0.25}]']
    )
    spec = override_spec("fig9", scenario_spec(quick=True), overrides)
    for job in spec.compile():
        assert job.config.perturbations == (
            PerturbationSpec(kind="slow_hbm", magnitude=0.25),
        )
        assert job.config.sim_config(seed=0).perturbations == (
            PerturbationSpec(kind="slow_hbm", magnitude=0.25),
        )


def test_degradation_scenarios_registered():
    from repro.scenario.registry import get_scenario

    for name in ("degrade_straggler", "degrade_linkfail"):
        scenario = get_scenario(name)
        spec = scenario.spec(quick=True)
        jobs = spec.compile()
        assert jobs, name
        # Baseline-first within each (strategy, cap) block: the healthy
        # cell precedes its degraded siblings.
        assert jobs[0].config.perturbations == ()
        assert any(job.config.perturbations for job in jobs)
        # The spec round-trips through its JSON form (so spec files and
        # shard manifests can carry perturbation axes).
        from repro.scenario.spec import SweepSpec

        again = SweepSpec.from_dict(spec.to_dict())
        assert [j.cache_key() for j in again.compile()] == [
            j.cache_key() for j in jobs
        ]
