"""Tests for sweep rows and their aggregates."""

import pytest

from repro.core.modes import ExecutionMode
from repro.core.sweep import feasible_rows, summarize_slowdowns
from repro.scenario.runner import run_spec
from repro.scenario.spec import SweepSpec

MODES = (ExecutionMode.OVERLAPPED, ExecutionMode.SEQUENTIAL)


@pytest.fixture(scope="module")
def grid():
    spec = SweepSpec(
        base={"gpu": "A100", "batch_size": 8, "strategy": "fsdp", "runs": 1},
        axes=[{"model": ["gpt3-xl", "gpt3-13b"]}],
        modes=MODES,
    )
    return run_spec(spec)


def test_grid_covers_every_cell(grid):
    assert len(grid) == 2


def test_oom_cells_are_skipped_not_raised(grid):
    skipped = [r for r in grid if not r.ran]
    assert len(skipped) == 1
    assert skipped[0].config.model == "gpt3-13b"
    assert "memory" in skipped[0].skipped_reason


def test_feasible_rows_filters(grid):
    feasible = feasible_rows(grid)
    assert len(feasible) == 1
    assert feasible[0].config.model == "gpt3-xl"


def test_summarize_slowdowns_aggregates(grid):
    summary = summarize_slowdowns(grid)
    assert summary["cells"] == 1
    assert summary["mean_compute_slowdown"] >= 0
    assert summary["max_compute_slowdown"] >= summary["mean_compute_slowdown"] - 1e-9
    assert summary["mean_sequential_penalty"] >= 0
