"""Tests for roofline analysis."""

import pytest

from repro.analysis.roofline import (
    bound_time_split,
    render_roofline,
    roofline_point,
    roofline_report,
)
from repro.hw.datapath import FP16_TENSOR, FP32_VECTOR
from repro.hw.registry import get_gpu
from repro.workloads.kernels import elementwise_kernel, gemm_kernel
from repro.workloads.registry import get_model
from repro.workloads.transformer import TrainingShape

A100 = get_gpu("A100")


def test_large_gemm_is_compute_bound():
    kernel = gemm_kernel("big", 8192, 8192, 8192, FP16_TENSOR)
    point = roofline_point(kernel, A100)
    assert point.compute_bound


def test_elementwise_is_memory_bound():
    kernel = elementwise_kernel("ew", 1e8, FP32_VECTOR)
    point = roofline_point(kernel, A100)
    assert not point.compute_bound


def test_achieved_flops_capped_by_efficiency():
    kernel = gemm_kernel("big", 8192, 8192, 8192, FP16_TENSOR)
    point = roofline_point(kernel, A100)
    assert point.achieved_flops <= point.peak_flops
    assert point.peak_fraction <= kernel.efficiency + 1e-9


def test_report_covers_full_iteration_sorted():
    points = roofline_report(
        get_model("gpt3-xl"), TrainingShape(batch_size=8), A100
    )
    assert len(points) > 50
    durations = [p.isolated_s for p in points]
    assert durations == sorted(durations, reverse=True)


def test_bound_split_sums_to_total():
    points = roofline_report(
        get_model("gpt3-xl"), TrainingShape(batch_size=8), A100
    )
    split = bound_time_split(points)
    total = sum(p.isolated_s for p in points)
    assert split["compute_bound_s"] + split["memory_bound_s"] == (
        pytest.approx(total)
    )
    assert 0.0 <= split["compute_bound_fraction"] <= 1.0


def test_transformer_training_is_mostly_compute_bound():
    points = roofline_report(
        get_model("gpt3-2.7b"), TrainingShape(batch_size=16), A100
    )
    split = bound_time_split(points)
    assert split["compute_bound_fraction"] > 0.5


def test_render_includes_top_kernels():
    points = roofline_report(
        get_model("gpt3-xl"), TrainingShape(batch_size=8), A100
    )
    text = render_roofline(points, top=5)
    assert "adam_step" in text or "lm_head" in text
    assert len(text.splitlines()) == 6  # header + 5 rows
