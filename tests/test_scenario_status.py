"""``scenario status`` and ``scenario diff``: cache/shard/manifest
introspection and drift detection between run manifests."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.exec.shard import ShardPlan
from repro.exec.service import configure, reset_default_service
from repro.scenario import (
    ScenarioResult,
    diff_manifests,
    load_manifest_file,
    run_scenario,
    save_manifest,
    scenario_status,
)


@pytest.fixture(autouse=True)
def fresh_service():
    reset_default_service()
    yield
    reset_default_service()


# ----------------------------------------------------------------------
# scenario status
# ----------------------------------------------------------------------


def test_status_cold_cache_reports_everything_missing(tmp_path):
    configure(cache=True, cache_dir=str(tmp_path))
    report = scenario_status("fig9")
    assert report.cells == 3
    assert report.cached_keys == 0
    assert len(report.missing_keys) == report.distinct_keys == 3
    assert not report.manifest_present
    assert report.shards == []
    assert "3 cell(s)" in report.describe()


def test_status_tracks_shards_landing(tmp_path):
    configure(cache=True, cache_dir=str(tmp_path))
    run_scenario("fig9", shard=ShardPlan(0, 2))
    report = scenario_status("fig9", shards=2)
    assert [(s.keys, s.cached) for s in report.shards] == [(2, 2), (1, 0)]
    assert [s.complete for s in report.shards] == [True, False]
    assert report.cached_keys == 2  # shard 0 carries 2 of 3 cells
    assert len(report.missing_keys) == 1
    assert not report.manifest_present

    run_scenario("fig9", shard=ShardPlan(1, 2))
    report = scenario_status("fig9", shards=2)
    assert all(s.complete for s in report.shards)
    assert report.cached_keys == 3 and not report.missing_keys
    # The completing shard wrote the canonical manifest.
    assert report.manifest_present and report.manifest_current


def test_status_explicit_partitioning_overrides_detection(tmp_path):
    configure(cache=True, cache_dir=str(tmp_path))
    run_scenario("fig9", shard=ShardPlan(0, 2))
    # Any partitioning can be asked about: the counts come from the
    # cache, not from which partitioning filled it.
    report = scenario_status("fig9", shards=3)
    assert [(s.index, s.count, s.keys) for s in report.shards] == [
        (0, 3, 1), (1, 3, 1), (2, 3, 1),
    ]
    assert [s.complete for s in report.shards] == [True, False, True]
    assert "shard 1/3: 0/1 key(s) cached" in report.describe()
    assert scenario_status("fig9").shards == []
    with pytest.raises(ConfigurationError, match="shard count"):
        scenario_status("fig9", shards=0)


def test_status_detects_stale_manifest(tmp_path):
    configure(cache=True, cache_dir=str(tmp_path))
    run_scenario("fig9")
    # Overwrite the manifest with one from a different spec version.
    stale = ScenarioResult(
        scenario="fig9", spec_hash="deadbeef", job_keys=["k1"]
    )
    save_manifest(tmp_path, stale)
    report = scenario_status("fig9")
    assert report.manifest_present and not report.manifest_current


def test_status_requires_a_sweep_spec():
    configure(cache=True, cache_dir=None)
    with pytest.raises(ConfigurationError):
        scenario_status("fig7")  # trace artifact: no sweep spec


def test_status_cli_roundtrip(tmp_path, capsys):
    assert (
        main(["scenario", "status", "fig9", "--cache-dir", str(tmp_path)])
        == 0
    )
    out = capsys.readouterr().out
    assert "scenario fig9" in out
    assert "0/3 key(s) present" in out  # nothing cached yet


def test_status_json_matches_the_report(tmp_path, capsys):
    configure(cache=True, cache_dir=str(tmp_path))
    run_scenario("fig9", shard=ShardPlan(0, 2))
    report = scenario_status("fig9", shards=2)
    reset_default_service()

    assert (
        main(
            [
                "scenario", "status", "fig9",
                "--cache-dir", str(tmp_path), "--shards", "2", "--json",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload == report.to_payload()
    # The fields a fleet operator gates on are all plain JSON types.
    assert payload["name"] == "fig9"
    assert payload["cells"] == 3
    assert payload["cached_keys"] == 2
    assert len(payload["missing_keys"]) == 1
    assert payload["shards"] == [
        {"index": 0, "count": 2, "keys": 2, "cached": 2, "complete": True},
        {"index": 1, "count": 2, "keys": 1, "cached": 0, "complete": False},
    ]
    assert payload["cache_dir"] == str(tmp_path)


# ----------------------------------------------------------------------
# scenario diff
# ----------------------------------------------------------------------


def _manifest(**overrides):
    base = dict(
        scenario="s",
        spec_hash="abc",
        job_keys=["k1", "k2"],
        summary={"cells": 2, "infeasible": 0, "simulated": 2},
    )
    base.update(overrides)
    return ScenarioResult(**base)


def test_diff_identical_manifests_no_drift():
    diff = diff_manifests(_manifest(), _manifest())
    assert not diff.drifted
    assert diff.common_keys == 2
    assert "no drift" in diff.describe()


def test_diff_spec_hash_mismatch_is_drift():
    diff = diff_manifests(_manifest(), _manifest(spec_hash="other"))
    assert diff.drifted and not diff.spec_hash_match


def test_diff_key_set_delta_is_drift():
    diff = diff_manifests(_manifest(), _manifest(job_keys=["k1", "k3"]))
    assert diff.drifted
    assert diff.only_in_a == ["k2"] and diff.only_in_b == ["k3"]


def test_diff_execution_accounting_is_informational():
    # A warm-cache rerun simulates fewer cells; that is not drift.
    warm = _manifest(summary={"cells": 2, "infeasible": 0, "simulated": 0})
    diff = diff_manifests(_manifest(), warm)
    assert not diff.drifted
    deltas = {d.key: d for d in diff.summary_deltas}
    assert deltas["simulated"].delta == -2
    assert not deltas["simulated"].drift_relevant


def test_diff_tolerance_gates_summary_drift():
    shifted = _manifest(summary={"cells": 2, "infeasible": 1, "simulated": 2})
    assert diff_manifests(_manifest(), shifted).drifted  # 0 -> 1 exact
    # infeasible goes 0 -> 1: rel delta is measured absolutely against
    # a zero baseline, so a tolerance >= 1 absorbs it.
    assert not diff_manifests(_manifest(), shifted, tol=1.0).drifted


def test_diff_cli_exit_codes(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(_manifest().to_payload()))
    b.write_text(json.dumps(_manifest().to_payload()))
    assert main(["scenario", "diff", str(a), str(b)]) == 0
    b.write_text(json.dumps(_manifest(job_keys=["k1"]).to_payload()))
    assert main(["scenario", "diff", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "DRIFT" in out
    # Unreadable manifest or missing file: error (2 via ReproError -> 1).
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["scenario", "diff", str(a), str(bad)]) == 1
    assert main(["scenario", "diff", str(a), str(tmp_path / "nope.json")]) == 1


def test_diff_survives_manifest_roundtrip(tmp_path):
    """A manifest written to disk diffs clean against its in-memory twin."""
    path = save_manifest(tmp_path, _manifest())
    loaded = load_manifest_file(path)
    assert loaded is not None
    assert not diff_manifests(_manifest(), loaded).drifted
