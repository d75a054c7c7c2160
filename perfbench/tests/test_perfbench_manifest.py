"""Self-test of the benchmark definition in ``BENCHMARK.json``.

Checks the names and limits the benchmark contract sets, and that the
benchmark's own tables agree with the file: every per-layer metric
names the end-to-end metric and the workload it should move, and
every metric's unit matches what ``perfbench/run.py`` prints.
"""

import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = _load("perfbench_run", ROOT / "perfbench" / "run.py")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_use_the_allowed_alphabet_once():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in BENCH[key]]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))


def test_metric_counts_within_limits():
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    assert 2 <= len(BENCH["workloads"]) <= 8


def test_end_to_end_metrics_match_run_py():
    assert {e["name"]: e["unit"] for e in BENCH["end_to_end"]} == RUN.END_TO_END
    bounds = {e["name"]: e["bound"] for e in BENCH["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_workloads_match_run_py():
    assert [w["name"] for w in BENCH["workloads"]] == list(RUN.WORKLOADS)


def test_times_scale_by_the_mean_probe_speed_of_their_section():
    record = {
        "setup_s": 1.0, "first_submit_at": 11.0,
        "wall_s": 4.0, "end_at": 15.0,
        "host_probes": [[10.0, 0, 0.5], [10.5, 0, 0.7],
                        [12.0, 0, 0.8], [14.0, 1, 1.0]],
    }
    assert abs(RUN.setup_ref_s(record) - 0.6) < 1e-12
    assert abs(RUN.wall_ref_s(record) - 3.6) < 1e-12
    # No probe in the section: the whole child's mean speed.
    record["host_probes"] = [[10.0, 0, 0.5], [10.5, 0, 0.7]]
    assert abs(RUN.wall_ref_s(record) - 2.4) < 1e-12


def test_every_per_layer_metric_names_what_it_should_move():
    workloads = {w["name"] for w in BENCH["workloads"]}
    end_to_end = {e["name"] for e in BENCH["end_to_end"]}
    assert [e["name"] for e in BENCH["per_layer"]] == list(RUN.PER_LAYER)
    for entry in BENCH["per_layer"]:
        unit, moves, on, not_on = RUN.PER_LAYER[entry["name"]]
        assert entry["unit"] == unit, entry
        assert moves in end_to_end, entry
        assert on in workloads, entry
        assert not_on is None or not_on in workloads, entry
