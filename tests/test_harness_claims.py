"""The claims registry against the committed ``EXPERIMENTS.md``.

This file sorts after ``test_golden_figures.py``, so the claims' Figs.
4-6 rows read the evaluation grid that file already simulated from the
default service's in-memory cache, unless a test in between reset it.

When a change to the table is intended (a physics change shows its
paper-gap delta here), regenerate the file and commit the diff:

    PYTHONPATH=src python -m pytest tests/test_harness_claims.py --update-golden
"""

from pathlib import Path

import pytest

from repro.core.sweep import summarize_slowdowns
from repro.harness import claims
from repro.harness.figures.grid import grid_spec
from repro.scenario import run_spec

EXPERIMENTS_MD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"


@pytest.fixture(scope="module")
def rows():
    return claims.generate(quick=True)


def test_every_shape_claim_holds_at_quick_fidelity(rows):
    shapes = [row for row in rows if row["paper"] is None]
    assert shapes
    violated = [row["id"] for row in shapes if not row["holds"]]
    assert not violated, f"shape claims violated: {violated}"


def test_rendered_table_matches_experiments_md(rows, request):
    text = claims.render(rows) + "\n"
    if request.config.getoption("--update-golden"):
        EXPERIMENTS_MD.write_text(text)
        return
    assert EXPERIMENTS_MD.read_text() == text, (
        f"EXPERIMENTS.md differs from the claims table; if the change is "
        f"intended, regenerate it with pytest {__file__} --update-golden"
    )


def test_abstract_magnitudes_match_the_grid_summary(rows):
    # perfbench's check.paper_gap_pp reads the same summary.
    measured = {row["id"]: row["measured"] for row in rows}
    headline = summarize_slowdowns(run_spec(grid_spec(quick=True)))
    for claim_id, key in (
        ("abstract.mean_slowdown", "mean_compute_slowdown"),
        ("abstract.max_slowdown", "max_compute_slowdown"),
        ("abstract.mean_sequential_penalty", "mean_sequential_penalty"),
        ("abstract.max_sequential_penalty", "max_sequential_penalty"),
    ):
        assert measured[claim_id] == headline[key], claim_id
