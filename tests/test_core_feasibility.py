"""Tests for memory-feasibility checks across strategies."""

import pytest

from repro.core.feasibility import check_feasibility
from repro.hw.system import make_node
from repro.units import GIB
from repro.workloads.memory_footprint import tensor_parallel_footprint
from repro.workloads.registry import get_model
from repro.workloads.transformer import TrainingShape

A100 = make_node("A100", 4)
H100 = make_node("H100", 4)
SHAPE = TrainingShape(batch_size=8)


def test_report_contains_capacity_and_requirement():
    report = check_feasibility(A100, get_model("gpt3-xl"), SHAPE, "fsdp")
    assert report.fits
    assert report.capacity_bytes / GIB == pytest.approx(40.0, rel=0.15)
    assert 0 < report.footprint.total_bytes < report.capacity_bytes
    assert "fits" in report.reason


def test_oom_reason_names_the_parts():
    report = check_feasibility(A100, get_model("gpt3-13b"), SHAPE, "fsdp")
    assert not report.fits
    assert "A100" in report.reason
    assert "gpt3-13b" in report.reason


def test_ddp_needs_more_memory_than_fsdp():
    model = get_model("gpt3-2.7b")
    fsdp = check_feasibility(H100, model, SHAPE, "fsdp")
    ddp = check_feasibility(H100, model, SHAPE, "ddp")
    assert (
        ddp.footprint.states_bytes > fsdp.footprint.states_bytes
    ), "DDP replicates optimizer states that FSDP shards"


def test_tensor_strategy_uses_tp_footprint():
    model = get_model("gpt3-xl")
    report = check_feasibility(H100, model, SHAPE, "tensor")
    direct = tensor_parallel_footprint(model, SHAPE, 4)
    assert report.footprint.states_bytes == pytest.approx(direct.states_bytes)


def test_tp_states_shard_but_activations_do_not_fully():
    model = get_model("gpt3-xl")
    one = tensor_parallel_footprint(model, SHAPE, 1)
    four = tensor_parallel_footprint(model, SHAPE, 4)
    assert four.states_bytes == pytest.approx(one.states_bytes / 4)
    # Activations shrink, but by less than 4x (replicated residual stream).
    assert four.activation_bytes < one.activation_bytes
    assert four.activation_bytes > one.activation_bytes / 4


def test_pipeline_feasibility_accounts_microbatches():
    model = get_model("gpt3-2.7b")
    small_micro = check_feasibility(
        A100, model, TrainingShape(batch_size=32), "pipeline", microbatch_size=2
    )
    big_micro = check_feasibility(
        A100, model, TrainingShape(batch_size=32), "pipeline", microbatch_size=16
    )
    assert (
        small_micro.footprint.activation_bytes
        < big_micro.footprint.activation_bytes
    )


def test_strategy_accepts_enum_or_string():
    from repro.parallel.strategy import Strategy

    a = check_feasibility(H100, get_model("gpt3-xl"), SHAPE, "fsdp")
    b = check_feasibility(H100, get_model("gpt3-xl"), SHAPE, Strategy.FSDP)
    assert a.footprint.total_bytes == b.footprint.total_bytes
