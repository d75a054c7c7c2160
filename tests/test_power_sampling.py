"""Tests for the vendor power-counter emulation."""

import pytest

from repro.errors import ConfigurationError
from repro.hw.gpu import Vendor
from repro.power.sampling import (
    PowerSampler,
    amd_smi_fast_sampler,
    amd_smi_sampler,
    nvml_sampler,
    sampler_for,
)
from repro.sim.result import PowerSegment


def _segment(start, end, power, gpu=0):
    return PowerSegment(
        gpu=gpu,
        start_s=start,
        end_s=end,
        power_w=power,
        compute_active=True,
        comm_active=False,
        clock_frac=1.0,
    )


def test_interval_must_be_positive():
    with pytest.raises(ConfigurationError):
        PowerSampler(interval_s=0.0)
    with pytest.raises(ConfigurationError):
        PowerSampler(interval_s=0.1, window_s=-1.0)


def test_constant_trace_samples_exactly():
    sampler = PowerSampler(interval_s=0.1)
    trace = sampler.sample([_segment(0.0, 1.0, 250.0)])
    assert len(trace.samples) == 10
    assert all(s.power_w == pytest.approx(250.0) for s in trace.samples)
    assert trace.average_w == pytest.approx(250.0)
    assert trace.peak_w == pytest.approx(250.0)


def test_window_averaging_smooths_spikes():
    # 10 ms spike to 800 W inside a 100 ms window of 200 W.
    segments = [
        _segment(0.0, 0.05, 200.0),
        _segment(0.05, 0.06, 800.0),
        _segment(0.06, 0.1, 200.0),
    ]
    coarse = PowerSampler(interval_s=0.1).sample(segments)
    fine = PowerSampler(interval_s=0.001).sample(segments)
    # The coarse (NVML-style) counter averages the spike away...
    assert coarse.peak_w < 300.0
    # ...while the fine-grained (ROCm-SMI-style) counter sees it.
    assert fine.peak_w == pytest.approx(800.0)


def test_empty_segments_produce_empty_trace():
    trace = PowerSampler(interval_s=0.1).sample([])
    assert trace.samples == []


def test_short_run_yields_no_samples_with_coarse_counter():
    # 30 ms run, 100 ms counter: no reading completes.
    trace = nvml_sampler().sample([_segment(0.0, 0.03, 300.0)])
    assert trace.samples == []


def test_vendor_sampler_intervals_follow_the_paper():
    assert nvml_sampler().interval_s == pytest.approx(0.1)
    assert amd_smi_sampler().interval_s == pytest.approx(0.02)
    assert amd_smi_fast_sampler().interval_s == pytest.approx(0.001)


def test_sampler_for_vendor():
    assert sampler_for(Vendor.NVIDIA).interval_s == pytest.approx(0.1)
    assert sampler_for(Vendor.AMD).interval_s == pytest.approx(0.02)
    assert sampler_for(Vendor.AMD, fine_grained=True).interval_s == (
        pytest.approx(0.001)
    )


def test_sample_times_are_monotone():
    trace = PowerSampler(interval_s=0.07).sample([_segment(0.0, 1.0, 100.0)])
    times = [s.time_s for s in trace.samples]
    assert times == sorted(times)
    assert times[0] == pytest.approx(0.07)
