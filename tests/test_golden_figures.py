"""Golden regression snapshots of figure summary metrics.

`tests/golden/<name>.json` pins the exact quick-mode numbers of the
Fig. 8 microbenchmark, the Fig. 9 power-cap sweep, the straggler
degradation grid (magnitude x strategy x power cap, slowdowns vs the
healthy twin cell) and the shared Figs. 4-6 evaluation grid (per-cell
slowdown/overlap/e2e plus overlapped-mode power and energy). The simulator is deterministic
(jitter is seeded from the config), so any drift here means a refactor
changed simulated physics, not noise. When a change is *intentional*,
regenerate the snapshots and commit the diff:

    PYTHONPATH=src python -m pytest tests/test_golden_figures.py --update-golden
"""

import json
import math
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Relative tolerance for float comparison: loose enough to absorb
#: JSON round-trip representation, tight enough that any real change
#: in simulated physics (always >> 1e-9 relative) fails.
REL_TOL = 1e-9


def _generate_fig8():
    from repro.harness.figures import fig8

    return fig8.generate(quick=True)


def _generate_fig9():
    from repro.scenario import run_scenario

    return run_scenario("fig9").rows


def _generate_degradation():
    from repro.scenario import run_scenario

    return run_scenario("degrade_straggler").rows


def _generate_grid():
    from repro.core.modes import ExecutionMode
    from repro.harness.figures.grid import grid_spec
    from repro.scenario import run_spec

    rows = []
    for cell in run_spec(grid_spec(quick=True)):
        record = {
            "cell": cell.config.describe(),
            "skipped": cell.skipped_reason,
        }
        if cell.ran:
            metrics = cell.result.metrics
            overlapped = cell.result.modes[ExecutionMode.OVERLAPPED]
            record.update(
                {
                    "compute_slowdown": metrics.compute_slowdown,
                    "overlap_ratio": metrics.overlap_ratio,
                    "e2e_overlapped_ms": metrics.e2e_overlapping_s * 1e3,
                    "avg_power_w": overlapped.avg_power_w,
                    "peak_power_w": overlapped.peak_power_w,
                    "energy_j": overlapped.energy_j,
                }
            )
        rows.append(record)
    return rows


GENERATORS = {
    "fig8": _generate_fig8,
    "fig9": _generate_fig9,
    "degradation": _generate_degradation,
    "grid": _generate_grid,
}


def _assert_matches(expected, actual, where):
    assert type(expected) is type(actual) or (
        isinstance(expected, (int, float))
        and isinstance(actual, (int, float))
    ), f"{where}: {expected!r} vs {actual!r}"
    if isinstance(expected, dict):
        assert sorted(expected) == sorted(actual), where
        for key in expected:
            _assert_matches(expected[key], actual[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(expected) == len(actual), where
        for index, (e, a) in enumerate(zip(expected, actual)):
            _assert_matches(e, a, f"{where}[{index}]")
    elif isinstance(expected, float) or isinstance(actual, float):
        assert math.isclose(
            expected, actual, rel_tol=REL_TOL, abs_tol=1e-15
        ), f"{where}: golden {expected!r} != simulated {actual!r}"
    else:
        assert expected == actual, where


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_figure_matches_golden_snapshot(name, request):
    path = GOLDEN_DIR / f"{name}.json"
    # Normalize through JSON so tuples/lists and float repr agree with
    # what the snapshot stores.
    rows = json.loads(json.dumps(GENERATORS[name]()))
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"missing golden snapshot {path}; generate it with "
        f"pytest {__file__} --update-golden"
    )
    golden = json.loads(path.read_text())
    _assert_matches(golden, rows, name)
