"""Sharded scenario runs over a shared cache directory.

The shared on-disk result cache is the only record of a sharded run: a
shard writes no manifest of its own, and the run that finds every
compiled key in the cache writes the canonical manifest, byte for byte
the one a warm unsharded run writes. Each shard below runs on a fresh
default service, as a separate worker process would, so nothing it
reads comes from another shard's in-memory cache.
"""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.exec.cache import CACHE_DIR_ENV, ResultCache
from repro.exec.shard import ShardPlan
from repro.exec.service import configure, reset_default_service
from repro.scenario import (
    load_manifest,
    manifest_path,
    run_scenario,
    scenario_status,
)


@pytest.fixture(autouse=True)
def fresh_service():
    reset_default_service()
    yield
    reset_default_service()


def _run(cache_dir, target="fig9", shard=None):
    """One run as its own worker process would do it."""
    reset_default_service()
    configure(cache=True, cache_dir=str(cache_dir))
    return run_scenario(target, shard=shard)


def test_sharded_runs_merge_to_the_unsharded_manifest(tmp_path):
    shard_dir = tmp_path / "sharded"
    solo_dir = tmp_path / "solo"

    first = _run(shard_dir, shard=ShardPlan(0, 2))
    assert first.shard == ShardPlan(0, 2)
    assert first.total_cells == 3
    assert first.cells + 1 == first.total_cells  # 3 cells split 2/1
    # No manifest of any kind until the cache holds every key.
    assert first.manifest_file is None
    assert not (shard_dir / "manifests").exists()

    second = _run(shard_dir, shard=ShardPlan(1, 2))
    assert second.manifest_file == manifest_path(shard_dir, "fig9")
    # Zero duplicate simulator invocations across the two shards.
    assert first.simulated + second.simulated == first.total_cells

    _run(solo_dir)
    sharded = load_manifest(shard_dir, "fig9")
    solo = load_manifest(solo_dir, "fig9")
    assert sharded.spec_hash == solo.spec_hash
    assert sharded.job_keys == solo.job_keys  # same keys, same order

    # A warm unsharded run over the shared dir simulates nothing and
    # writes the completing shard's manifest byte for byte.
    written = second.manifest_file.read_bytes()
    warm = _run(shard_dir)
    assert warm.simulated == 0
    assert warm.manifest_file.read_bytes() == written


def test_explicit_merge_is_idempotent_and_validated(tmp_path):
    # A plain run over the complete cache does what an explicit merge
    # would: it resolves (so validates) every entry, simulates nothing
    # and writes the same manifest however often it runs.
    _run(tmp_path, shard=ShardPlan(0, 2))
    _run(tmp_path, shard=ShardPlan(1, 2))
    path = manifest_path(tmp_path, "fig9")
    written = path.read_bytes()
    for _ in range(2):
        assert _run(tmp_path).simulated == 0
        assert path.read_bytes() == written


def test_merge_reports_missing_shards(tmp_path):
    # An incomplete shard set writes no manifest; status names, per
    # shard, what the cache still lacks.
    report = _run(tmp_path, shard=ShardPlan(0, 3))
    assert report.manifest is None
    assert load_manifest(tmp_path, "fig9") is None
    status = scenario_status("fig9", shards=3)
    assert [s.complete for s in status.shards] == [True, False, False]
    assert len(status.missing_keys) == 2


def test_merge_survives_repartitioning(tmp_path):
    # A complete 2-way run, later re-run 3-way into the same cache dir,
    # needs no cleanup: every 3-way shard finds the cache complete,
    # simulates nothing and writes the same manifest.
    _run(tmp_path, shard=ShardPlan(0, 2))
    _run(tmp_path, shard=ShardPlan(1, 2))
    written = manifest_path(tmp_path, "fig9").read_bytes()
    for index in range(3):
        report = _run(tmp_path, shard=ShardPlan(index, 3))
        assert report.simulated == 0
        assert report.manifest_file.read_bytes() == written


def test_auto_merge_ignores_stale_partitionings(tmp_path):
    # A leftover 3-way shard from an earlier attempt only pre-warms the
    # cache for the 2-way run: the run that completes the key set
    # writes the manifest, and no cell simulates twice.
    runs = [
        _run(tmp_path, shard=ShardPlan(0, 3)),
        _run(tmp_path, shard=ShardPlan(0, 2)),
    ]
    assert load_manifest(tmp_path, "fig9") is None
    runs.append(_run(tmp_path, shard=ShardPlan(1, 2)))
    assert runs[-1].manifest_file is not None
    assert sum(r.simulated for r in runs) == runs[-1].total_cells


def test_completing_shard_heals_a_torn_cache_entry(tmp_path):
    first = _run(tmp_path, shard=ShardPlan(0, 2))
    job = ShardPlan(0, 2).select(first.spec.compile())[0]
    entry = tmp_path / f"{job.cache_key()}.json"
    text = entry.read_text()
    entry.write_text(text[: len(text) // 2])

    _run(tmp_path, shard=ShardPlan(1, 2))
    # The completing shard read the torn entry, re-simulated that one
    # key and wrote it back whole.
    assert load_manifest(tmp_path, "fig9").summary["simulated"] == 1
    assert ResultCache(tmp_path).get(job) is not None


def test_duplicate_cells_within_a_shard_still_merge(tmp_path):
    # A spec may legitimately compile duplicate cells (a repeated
    # include); they share a cache key, land in the same shard, and
    # stay duplicated in the manifest, as in an unsharded run.
    spec_file = tmp_path / "dup.json"
    spec_file.write_text(
        json.dumps(
            {
                "name": "dup",
                "base": {"gpu": "A100", "model": "gpt3-xl", "runs": 1},
                "axes": [{"batch_size": [8, 16]}],
                "include": [{"batch_size": 8}],
                "modes": ["overlapped", "sequential"],
            }
        )
    )
    cache_dir = tmp_path / "cache"
    _run(cache_dir, str(spec_file), ShardPlan(0, 2))
    report = _run(cache_dir, str(spec_file), ShardPlan(1, 2))
    assert len(report.manifest.job_keys) == 3  # duplicates preserved
    assert len(set(report.manifest.job_keys)) == 2
    assert report.manifest.summary["cache_hits"] == 3


def test_merge_is_independent_of_shard_delivery_order(tmp_path):
    # Workers finish in whatever order they finish; the manifest must
    # not care which shard completed the set.
    for index in (0, 1):
        _run(tmp_path / "in_order", shard=ShardPlan(index, 2))
    for index in (1, 0):
        _run(tmp_path / "reversed", shard=ShardPlan(index, 2))
    assert (
        manifest_path(tmp_path / "in_order", "fig9").read_bytes()
        == manifest_path(tmp_path / "reversed", "fig9").read_bytes()
    )


def test_merge_is_idempotent_over_repeated_delivery(tmp_path):
    # The whole shard set delivered again (a requeued batch of workers)
    # simulates nothing and leaves the manifest's bytes alone.
    for index in (0, 1):
        _run(tmp_path, shard=ShardPlan(index, 2))
    written = manifest_path(tmp_path, "fig9").read_bytes()
    again = [_run(tmp_path, shard=ShardPlan(index, 2)) for index in (0, 1)]
    assert [r.simulated for r in again] == [0, 0]
    assert manifest_path(tmp_path, "fig9").read_bytes() == written


def test_redelivered_shard_manifest_merges_identically(tmp_path):
    # Shard 0 delivered twice before shard 1 lands: the second delivery
    # simulates nothing and writes nothing, and the completed record is
    # the one a single delivery gives.
    _run(tmp_path / "once", shard=ShardPlan(0, 2))
    _run(tmp_path / "once", shard=ShardPlan(1, 2))
    _run(tmp_path / "twice", shard=ShardPlan(0, 2))
    redelivered = _run(tmp_path / "twice", shard=ShardPlan(0, 2))
    assert redelivered.simulated == 0
    assert redelivered.manifest is None
    _run(tmp_path / "twice", shard=ShardPlan(1, 2))
    assert (
        manifest_path(tmp_path / "twice", "fig9").read_bytes()
        == manifest_path(tmp_path / "once", "fig9").read_bytes()
    )


def test_sharding_a_specless_scenario_is_rejected():
    with pytest.raises(ConfigurationError, match="cannot be sharded"):
        run_scenario("fig8", shard=ShardPlan(0, 2))


def test_sharded_run_without_cache_still_runs(monkeypatch):
    configure(cache=False)
    report = run_scenario("fig9", shard=ShardPlan(0, 2))
    assert report.cells == 2
    assert report.simulated == 2
    assert report.manifest_file is None  # nowhere to persist
    # An in-memory cache that holds every key is no shared record
    # either: the lone shard 0/1 writes no manifest.
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    configure(cache=True, cache_dir=None)
    report = run_scenario("fig9", shard=ShardPlan(0, 1))
    assert report.cells == 3
    assert report.manifest is None


def test_cli_shard_and_merge_round_trip(tmp_path, capsys):
    cache = tmp_path / "cli-cache"
    run = ["scenario", "run", "fig9", "--cache-dir", str(cache)]
    assert main(run + ["--shard", "0/2"]) == 0
    err = capsys.readouterr().err
    assert "shard 0/2: 2 of 3 cell(s)" in err
    assert "manifest ->" not in err
    assert main(run + ["--shard", "1/2"]) == 0
    err = capsys.readouterr().err
    assert "shard 1/2: 1 of 3 cell(s): 1 simulated" in err
    assert f"manifest -> {manifest_path(cache, 'fig9')}" in err
    # The completing shard is the merge; there is no merge verb.
    with pytest.raises(SystemExit):
        main(["scenario", "merge", "fig9", "--cache-dir", str(cache)])
    # Bad shard spellings fail loudly at the CLI boundary.
    assert main(run + ["--shard", "9/2"]) == 1
