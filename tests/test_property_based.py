"""Property-based tests on core models (hypothesis)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.algorithms import ring_wire_bytes
from repro.collectives.cost_model import CollectiveCostModel
from repro.collectives.library import NCCL, RCCL
from repro.collectives.primitives import CollectiveKind, CollectiveOp
from repro.hw.calibration import AMD_CALIBRATION, NVIDIA_CALIBRATION
from repro.hw.datapath import FP16_TENSOR
from repro.hw.dvfs import FrequencyGovernor, PowerLimitPolicy
from repro.hw.power import GpuActivity, GpuPowerCoefficients, gpu_power
from repro.hw.registry import get_gpu, get_link
from repro.sim.rates import compute_rate, isolated_duration
from repro.workloads.kernels import gemm_kernel

A100 = get_gpu("A100")
MODEL = CollectiveCostModel(
    get_link("A100"), NCCL, NVIDIA_CALIBRATION, A100.memory.effective_bandwidth
)

payloads = st.floats(min_value=1e3, max_value=1e10)
worlds = st.integers(min_value=2, max_value=16)
group_kinds = st.sampled_from(
    [
        CollectiveKind.ALL_REDUCE,
        CollectiveKind.ALL_GATHER,
        CollectiveKind.REDUCE_SCATTER,
    ]
)


def _op(kind, payload, world):
    return CollectiveOp(
        key="prop",
        kind=kind,
        payload_bytes=payload,
        participants=tuple(range(world)),
    )


@given(group_kinds, payloads, worlds)
def test_collective_cost_fields_in_valid_ranges(kind, payload, world):
    cost = MODEL.cost(_op(kind, payload, world))
    assert cost.duration_s > 0
    assert cost.wire_bytes >= 0
    assert 0 <= cost.sm_fraction < 1
    assert 0 <= cost.link_fraction <= 1
    assert cost.hbm_bytes_per_s <= A100.memory.effective_bandwidth + 1e-6


@given(group_kinds, payloads, worlds)
def test_collective_duration_monotone_in_payload(kind, payload, world):
    small = MODEL.cost(_op(kind, payload, world)).duration_s
    large = MODEL.cost(_op(kind, payload * 4, world)).duration_s
    assert large >= small


@given(payloads, worlds)
def test_allreduce_wire_bytes_double_allgather(payload, world):
    ar = ring_wire_bytes(_op(CollectiveKind.ALL_REDUCE, payload, world))
    ag = ring_wire_bytes(_op(CollectiveKind.ALL_GATHER, payload, world))
    assert ar == pytest.approx(2 * ag)


@given(payloads)
def test_rccl_collectives_cost_more_sm_than_nccl(payload):
    amd_model = CollectiveCostModel(
        get_link("MI250"),
        RCCL,
        AMD_CALIBRATION,
        A100.memory.effective_bandwidth,
    )
    op = _op(CollectiveKind.ALL_REDUCE, payload, 4)
    assert amd_model.cost(op).sm_fraction >= MODEL.cost(op).sm_fraction


dims = st.integers(min_value=16, max_value=4096)


@given(dims, dims, dims)
def test_gemm_rate_bounded_by_peak(m, n, k):
    kernel = gemm_kernel("g", m, n, k, FP16_TENSOR)
    rate = compute_rate(
        kernel,
        A100,
        sm_fraction=1.0,
        hbm_bytes_per_s=A100.memory.effective_bandwidth,
        clock_frac=1.0,
    )
    assert 0 < rate <= A100.peak(FP16_TENSOR)


@given(dims, st.floats(min_value=0.05, max_value=1.0))
def test_rate_monotone_in_sm_fraction(n, frac):
    kernel = gemm_kernel("g", n, n, n, FP16_TENSOR)
    bw = A100.memory.effective_bandwidth
    partial = compute_rate(kernel, A100, frac, bw, 1.0)
    full = compute_rate(kernel, A100, 1.0, bw, 1.0)
    assert partial <= full + 1e-6


@given(dims, st.floats(min_value=0.3, max_value=1.0))
def test_rate_monotone_in_clock(n, clock):
    kernel = gemm_kernel("g", n, n, n, FP16_TENSOR)
    bw = A100.memory.effective_bandwidth
    throttled = compute_rate(kernel, A100, 1.0, bw, clock)
    full = compute_rate(kernel, A100, 1.0, bw, 1.0)
    assert throttled <= full + 1e-6


@given(dims)
def test_hbm_demand_consistent_with_rate(n):
    kernel = gemm_kernel("g", n, n, n, FP16_TENSOR)
    rate = compute_rate(
        kernel, A100, 1.0, A100.memory.effective_bandwidth, 1.0
    )
    # The roofline bound: HBM demand is the rate over the arithmetic
    # intensity, and never exceeds the bandwidth the rate was given.
    demand = rate / kernel.arithmetic_intensity
    assert demand <= A100.memory.effective_bandwidth * 1.001


@given(dims)
def test_isolated_duration_positive_and_finite(n):
    kernel = gemm_kernel("g", n, n, n, FP16_TENSOR)
    duration = isolated_duration(kernel, A100)
    assert 0 < duration < math.inf


utils = st.floats(min_value=0.0, max_value=1.0)


@given(utils, utils, utils, st.floats(min_value=0.3, max_value=1.0))
def test_power_within_component_bounds(sm, hbm, link, clock):
    from repro.hw.datapath import Datapath

    coeffs = GpuPowerCoefficients()
    activity = GpuActivity(
        sm_util={Datapath.TENSOR: sm},
        hbm_frac=hbm,
        link_frac=link,
        clock_frac=clock,
    )
    power = gpu_power(400.0, coeffs, activity)
    floor = 400.0 * coeffs.idle_frac
    ceiling = 400.0 * (
        coeffs.idle_frac
        + coeffs.sm_max_frac[Datapath.TENSOR]
        + coeffs.hbm_max_frac
        + coeffs.link_max_frac
    )
    assert floor - 1e-9 <= power <= ceiling + 1e-9


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1000.0),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=50)
def test_governor_clock_always_in_bounds(samples):
    policy = PowerLimitPolicy(limit_w=250.0)
    governor = FrequencyGovernor(policy, min_clock_frac=0.3)
    for sample in samples:
        clock = governor.observe(sample)
        assert 0.3 <= clock <= 1.0


@given(st.floats(min_value=300.0, max_value=2000.0))
@settings(max_examples=25)
def test_governor_converges_under_sustained_overdraw(power):
    policy = PowerLimitPolicy(limit_w=250.0)
    governor = FrequencyGovernor(policy, min_clock_frac=0.3)
    clock = 1.0
    for _ in range(500):
        # Power scales with the clock the governor chose (closed loop).
        clock = governor.observe(power * clock ** 2.4)
    settled = power * clock ** 2.4
    assert settled <= 300.0 or clock == pytest.approx(0.3)
