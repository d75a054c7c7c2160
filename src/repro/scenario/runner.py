"""Compile and run scenarios (registered names or spec files).

Two entry points:

* :func:`run_spec` — the canonical sweep path: compile a
  :class:`~repro.scenario.spec.SweepSpec` and resolve every job
  through the execution service, returning
  :class:`~repro.core.sweep.GridRow` cells in compile order.
* :func:`run_scenario` — everything ``scenario run`` does: resolve a
  registered scenario (or load a spec file), prefetch its compiled
  jobs as one batch (so ``--jobs N`` fans them out), produce the
  artifact rows, and persist a :class:`ScenarioResult` manifest next
  to the result cache for incremental re-runs.

Sharded execution rides the same entry points: ``run_scenario(...,
shard=ShardPlan(i, N))`` compiles the full spec, runs only the
deterministic shard ``i`` and persists a per-shard manifest; when the
last shard lands (or via :func:`merge_scenario` / ``scenario merge``)
the shard manifests union into the canonical manifest after
validating spec hashes and key-set disjointness/completeness.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Mapping, Optional

from repro.core.sweep import GridRow
from repro.errors import ConfigurationError, UnknownSpecError
from repro.exec.service import ExecutionService, default_service
from repro.exec.shard import ShardPlan
from repro.harness.report import render_table
from repro.scenario.manifest import (
    ScenarioResult,
    find_shard_manifests,
    load_manifest,
    load_shard_manifest,
    merge_shard_manifests,
    save_manifest,
)
from repro.scenario.registry import Scenario, get_scenario
from repro.scenario.spec import SweepSpec
from repro.scenario.yaml_lite import load_spec_file


def _rows_from(jobs, outcomes) -> List[GridRow]:
    """Pair compiled jobs with their outcomes as sweep rows."""
    return [
        GridRow(
            config=job.config,
            result=outcome.result,
            skipped_reason=outcome.skipped_reason,
        )
        for job, outcome in zip(jobs, outcomes)
    ]


def run_spec(
    spec: SweepSpec, service: Optional[ExecutionService] = None
) -> List[GridRow]:
    """Run every cell of ``spec``; infeasible cells come back skipped."""
    if service is None:
        service = default_service()
    jobs = spec.compile()
    return _rows_from(jobs, service.run_jobs(jobs))


def generic_rows(rows: List[GridRow]) -> List[dict]:
    """Figure-style data rows for an ad-hoc (file-based) spec."""
    out: List[dict] = []
    for cell in rows:
        record = {
            "cell": cell.config.describe(),
            "gpu": cell.config.gpu,
            "model": cell.config.model,
            "batch": cell.config.batch_size,
            "strategy": cell.config.strategy,
        }
        if not cell.ran:
            record.update(
                {
                    "compute_slowdown": None,
                    "overlap_ratio": None,
                    "e2e_overlapped_ms": None,
                    "skipped": cell.skipped_reason,
                }
            )
        else:
            metrics = cell.result.metrics
            record.update(
                {
                    "compute_slowdown": metrics.compute_slowdown,
                    "overlap_ratio": metrics.overlap_ratio,
                    "e2e_overlapped_ms": metrics.e2e_overlapping_s * 1e3,
                    "skipped": None,
                }
            )
        out.append(record)
    return out


def render_generic(rows: List[dict]) -> str:
    """Text table for :func:`generic_rows` output."""
    headers = ["cell", "slowdown", "overlap", "e2e_ms"]
    body = []
    skipped = []
    for row in rows:
        if row["skipped"]:
            skipped.append(f"  skipped {row['cell']}: {row['skipped']}")
            continue
        body.append(
            [
                row["cell"],
                f"{row['compute_slowdown'] * 100:.1f}%",
                f"{row['overlap_ratio'] * 100:.1f}%",
                f"{row['e2e_overlapped_ms']:.1f}",
            ]
        )
    text = render_table(headers, body)
    if skipped:
        text += "\nInfeasible cells (memory):\n" + "\n".join(skipped)
    return text


@dataclass
class ScenarioRunReport:
    """Everything one ``scenario run`` produced."""

    name: str
    spec: Optional[SweepSpec]
    rows: Any
    text: str
    cells: int
    simulated: int
    cache_hits: int
    skipped: int
    #: Cells whose job keys the previous manifest already recorded
    #: (with a warm cache these are exactly the cells that did not
    #: simulate again).
    previously_completed: int
    manifest: Optional[ScenarioResult] = None
    manifest_file: Optional[Path] = None
    #: Set on sharded runs only.
    shard: Optional[ShardPlan] = None
    #: Total compiled cells across all shards (== ``cells`` unsharded).
    total_cells: int = 0
    #: Canonical manifest path when this run's shard completed the set
    #: and the auto-merge fired.
    merged_manifest_file: Optional[Path] = None


def resolve_spec(
    target: str, quick: bool = True
) -> "tuple[Optional[Scenario], str, Optional[SweepSpec]]":
    """(registered scenario, name, spec) for a scenario name or file.

    Shared by every verb that takes a scenario target: a registered
    name wins and brings its spec at ``quick`` fidelity (``None`` for
    an artifact that does not run through the job service); otherwise
    an existing path loads as a spec file, whose loader always names
    it; otherwise the unknown-scenario error (naming the known
    scenarios) propagates.
    """
    try:
        scenario = get_scenario(target)
    except UnknownSpecError:
        if os.path.exists(target):
            spec = load_spec_file(target)
            return None, spec.name, spec
        if os.sep in target or target.endswith((".yaml", ".yml", ".json")):
            # Clearly meant as a path: a registry listing would only
            # mislead.
            raise ConfigurationError(
                f"spec file not found: {target}"
            ) from None
        raise
    return scenario, scenario.name, scenario.spec(quick=quick)


def require_spec(
    name: str, spec: Optional[SweepSpec], action: str
) -> SweepSpec:
    """``spec``, or the error for spec-only work on a spec-less artifact."""
    if spec is None:
        raise ConfigurationError(
            f"scenario {name!r} has no sweep spec (it does not run "
            f"through the job service) and {action}"
        )
    return spec


def parse_set_overrides(pairs: Optional[List[str]]) -> "dict[str, Any]":
    """``--set FIELD=VALUE`` flags -> an override mapping.

    Values parse as JSON scalars where possible (``16`` -> int,
    ``0.5`` -> float, ``true`` -> bool, ``null`` -> None) and fall
    back to plain strings (``gpu=H100``, ``strategy=pipeline``), which
    matches how spec files deserialize the same fields.
    """
    import json

    overrides: "dict[str, Any]" = {}
    for pair in pairs or []:
        name, sep, raw = pair.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ConfigurationError(
                f"--set needs FIELD=VALUE, got {pair!r}"
            )
        try:
            value = json.loads(raw)
        except ValueError:
            value = raw
        overrides[name] = value
    return overrides


def override_spec(
    name: str,
    spec: Optional[SweepSpec],
    overrides: Optional[Mapping[str, Any]],
) -> Optional[SweepSpec]:
    """Fold ``--set`` overrides into a resolved spec, or reject.

    Shared by ``scenario run`` and ``scenario show`` so both report a
    spec-less artifact the same way instead of one silently ignoring
    the flag.
    """
    if not overrides:
        return spec
    spec = require_spec(name, spec, "--set cannot override it")
    return spec.with_base_overrides(overrides)


def run_scenario(
    target: str,
    quick: bool = True,
    shard: Optional[ShardPlan] = None,
    overrides: Optional[Mapping[str, Any]] = None,
) -> ScenarioRunReport:
    """Run a registered scenario by name, or a spec file by path.

    Everything goes through the process-wide default service (the one
    the CLI's ``--jobs``/``--cache-dir`` flags configure) — registered
    scenarios' generators resolve their cells through it, so a
    different service here would just simulate everything twice. With
    a cache, the compiled jobs are prefetched as one batch first
    (parallel executors fan them out; the generator then resolves from
    cache), and the run's manifest is persisted next to the result
    cache when one is on disk.

    With ``shard=ShardPlan(i, N)`` only the deterministic shard ``i``
    of the compiled job list runs (see :mod:`repro.exec.shard`) and a
    per-shard manifest is persisted instead of the canonical one; the
    rows are the generic per-cell records of that shard (a figure's
    own generator would simulate every other shard's cells too, which
    is exactly what sharding exists to avoid). When the run completes
    the last outstanding shard, the shard manifests auto-merge into
    the canonical manifest.
    """
    scenario, name, spec = resolve_spec(target, quick=quick)
    service = default_service()
    if overrides:
        spec = override_spec(name, spec, overrides)
        # An overridden sweep is a different experiment: its rows come
        # from the generic per-cell path (a registered scenario's own
        # generator would ignore the overrides) and its manifest lands
        # under a hash-qualified name so it never clobbers the
        # canonical run record.
        name = f"{name}@{spec.spec_hash()[:8]}"
        scenario = None
    if shard is not None:
        spec = require_spec(name, spec, "cannot be sharded")
        return _run_shard(name, spec, shard, service)

    cache_dir = service.cache.directory if service.cache is not None else None
    previous = None
    job_keys: List[str] = []
    jobs = []
    if spec is not None:
        jobs = spec.compile()
        job_keys = [job.cache_key() for job in jobs]
        previous = load_manifest(cache_dir, name)
    # Keys recorded for an older spec version still count: cells the
    # edit left unchanged remain cached under the same job hash.
    known = set(previous.job_keys) if previous is not None else set()
    previously_completed = sum(1 for key in job_keys if key in known)

    before = dataclasses.replace(service.stats)
    # Resolve the compiled batch once. For a registered scenario this
    # is the prefetch (the generator then reads from cache), so it is
    # skipped when caching is off — nothing would be retained and the
    # generator would simulate every cell a second time. A file spec's
    # rows come straight from these outcomes, so it always runs (and
    # an empty compile yields an empty batch, not None).
    outcomes = None
    if scenario is None or service.cache is not None:
        outcomes = service.run_jobs(jobs) if jobs else []

    if scenario is not None:
        rows = scenario.generate(quick=quick)
        text = (
            scenario.render(rows)
            if scenario.render is not None
            else repr(rows)
        )
    else:
        rows = generic_rows(_rows_from(jobs, outcomes))
        text = render_generic(rows)
    after = service.stats

    # Per-cell accounting comes from the batch outcomes (counted once,
    # not per re-read); only the no-cache registered-scenario path has
    # no batch and falls back to service-stat deltas (a single pass,
    # so the deltas are exact there).
    simulated = after.simulated - before.simulated
    if outcomes is not None:
        cache_hits = sum(1 for o in outcomes if o.from_cache)
        skipped = sum(1 for o in outcomes if not o.ran)
    else:
        cache_hits = after.cache_hits - before.cache_hits
        skipped = after.skipped - before.skipped

    manifest = None
    manifest_file = None
    if spec is not None:
        manifest = ScenarioResult(
            scenario=name,
            spec_hash=spec.spec_hash(),
            job_keys=job_keys,
            summary={
                "cells": len(jobs),
                "simulated": simulated,
                "cache_hits": cache_hits,
                "infeasible": skipped,
            },
        )
        manifest_file = save_manifest(cache_dir, manifest)

    return ScenarioRunReport(
        name=name,
        spec=spec,
        rows=rows,
        text=text,
        cells=len(jobs),
        simulated=simulated,
        cache_hits=cache_hits,
        skipped=skipped,
        previously_completed=previously_completed,
        manifest=manifest,
        manifest_file=manifest_file,
        total_cells=len(jobs),
    )


def _run_shard(
    name: str,
    spec: SweepSpec,
    shard: ShardPlan,
    service: ExecutionService,
) -> ScenarioRunReport:
    """One shard of a spec: run it, persist its manifest, auto-merge."""
    jobs = spec.compile()
    shard_jobs = shard.select(jobs)
    shard_keys = [job.cache_key() for job in shard_jobs]
    cache_dir = service.cache.directory if service.cache is not None else None

    previous = load_shard_manifest(cache_dir, name, shard.index, shard.count)
    known = set(previous.job_keys) if previous is not None else set()
    previously_completed = sum(1 for key in shard_keys if key in known)

    before = dataclasses.replace(service.stats)
    outcomes = service.run_jobs(shard_jobs)
    simulated = service.stats.simulated - before.simulated
    cache_hits = sum(1 for o in outcomes if o.from_cache)
    skipped = sum(1 for o in outcomes if not o.ran)

    rows = generic_rows(_rows_from(shard_jobs, outcomes))
    text = render_generic(rows)

    spec_hash = spec.spec_hash()
    manifest = ScenarioResult(
        scenario=name,
        spec_hash=spec_hash,
        job_keys=shard_keys,
        summary={
            "cells": len(shard_jobs),
            "simulated": simulated,
            "cache_hits": cache_hits,
            "infeasible": skipped,
            "total_cells": len(jobs),
        },
        shard_index=shard.index,
        shard_count=shard.count,
    )
    manifest_file = save_manifest(cache_dir, manifest)

    # Auto-merge once every sibling shard of *this* partitioning and
    # *this* spec version has landed. Stale manifests (another N, an
    # edited spec) are ignored here — the explicit `scenario merge` is
    # the strict path that reports them.
    merged_manifest_file = None
    if cache_dir is not None:
        siblings = {
            key: m
            for key, m in find_shard_manifests(cache_dir, name).items()
            if key[1] == shard.count and m.spec_hash == spec_hash
        }
        if all((i, shard.count) in siblings for i in range(shard.count)):
            merged = merge_shard_manifests(
                name, spec_hash, [job.cache_key() for job in jobs], siblings
            )
            merged_manifest_file = save_manifest(cache_dir, merged)

    return ScenarioRunReport(
        name=name,
        spec=spec,
        rows=rows,
        text=text,
        cells=len(shard_jobs),
        simulated=simulated,
        cache_hits=cache_hits,
        skipped=skipped,
        previously_completed=previously_completed,
        manifest=manifest,
        manifest_file=manifest_file,
        shard=shard,
        total_cells=len(jobs),
        merged_manifest_file=merged_manifest_file,
    )


@dataclass
class ShardStatus:
    """Whether one shard of a partitioning has landed its manifest."""

    index: int
    count: int
    present: bool
    spec_match: bool
    cells: int

    def describe(self) -> str:
        if not self.present:
            return f"shard {self.index}/{self.count}: MISSING"
        if not self.spec_match:
            return (
                f"shard {self.index}/{self.count}: present, STALE spec hash"
            )
        return f"shard {self.index}/{self.count}: {self.cells} cell(s) landed"

    def to_payload(self) -> dict:
        """Plain-JSON form for ``scenario status --json``."""
        return {
            "index": self.index,
            "count": self.count,
            "present": self.present,
            "spec_match": self.spec_match,
            "cells": self.cells,
        }


@dataclass
class ScenarioStatusReport:
    """Everything ``scenario status`` reports about one scenario.

    Answers the three operational questions of a (possibly sharded,
    possibly multi-machine) run against a shared cache directory:
    which shard manifests of the partitioning have landed, which job
    cache keys are still missing from the result cache, and whether
    the canonical manifest reflects the current spec.
    """

    name: str
    spec_hash: str
    cells: int
    distinct_keys: int
    cached_keys: int
    missing_keys: List[str]
    cache_dir: Optional[Path]
    manifest_present: bool
    manifest_current: bool
    shard_count: Optional[int]
    shards: List[ShardStatus]
    stale_shard_manifests: int

    @property
    def shards_complete(self) -> bool:
        """All shards of the reported partitioning landed, hash-matched."""
        if self.shard_count is None:
            return False
        return all(s.present and s.spec_match for s in self.shards)

    def describe(self) -> str:
        lines = [
            f"scenario {self.name} (spec {self.spec_hash[:12]}...): "
            f"{self.cells} cell(s), {self.distinct_keys} distinct key(s)"
        ]
        where = (
            f"dir {self.cache_dir}" if self.cache_dir is not None
            else "in-memory only (pass --cache-dir for durable status)"
        )
        lines.append(
            f"  cache [{where}]: {self.cached_keys}/{self.distinct_keys} "
            f"key(s) present, {len(self.missing_keys)} missing"
        )
        for key in self.missing_keys[:5]:
            lines.append(f"    missing: {key[:16]}...")
        if len(self.missing_keys) > 5:
            lines.append(f"    ... and {len(self.missing_keys) - 5} more")
        if self.manifest_present:
            state = "current" if self.manifest_current else (
                "STALE (spec or key set changed since it was written)"
            )
            lines.append(f"  manifest: present, {state}")
        else:
            lines.append("  manifest: absent")
        if self.shard_count is not None:
            landed = sum(1 for s in self.shards if s.present and s.spec_match)
            lines.append(
                f"  shards ({self.shard_count}-way): {landed}/"
                f"{self.shard_count} landed"
                + (" — complete, mergeable" if self.shards_complete else "")
            )
            for shard in self.shards:
                lines.append(f"    {shard.describe()}")
        elif self.stale_shard_manifests == 0:
            lines.append("  shards: none found")
        if self.stale_shard_manifests:
            lines.append(
                f"  ignored {self.stale_shard_manifests} stale shard "
                f"manifest(s) (other partitionings or edited specs)"
            )
        return "\n".join(lines)

    def to_payload(self) -> dict:
        """Machine-readable status (``scenario status --json``).

        Everything :meth:`describe` prints, as plain JSON types — a
        fleet operator (or the CI smoke job) can gate on
        ``missing_keys == []`` / ``shards_complete`` without parsing
        the human rendering.
        """
        return {
            "name": self.name,
            "spec_hash": self.spec_hash,
            "cells": self.cells,
            "distinct_keys": self.distinct_keys,
            "cached_keys": self.cached_keys,
            "missing_keys": list(self.missing_keys),
            "cache_dir": (
                str(self.cache_dir) if self.cache_dir is not None else None
            ),
            "manifest_present": self.manifest_present,
            "manifest_current": self.manifest_current,
            "shard_count": self.shard_count,
            "shards": [s.to_payload() for s in self.shards],
            "shards_complete": self.shards_complete,
            "stale_shard_manifests": self.stale_shard_manifests,
        }


def scenario_status(
    target: str,
    quick: bool = True,
    shards: Optional[int] = None,
) -> ScenarioStatusReport:
    """Report shard/cache/manifest state for a scenario without running it.

    ``shards`` pins the partitioning to report on; by default the
    largest shard count found among the persisted, hash-matching shard
    manifests is used. Compiles the spec (at ``quick`` fidelity) but
    never simulates — the cache is only probed for key presence.
    """
    _, name, spec = resolve_spec(target, quick=quick)
    spec = require_spec(name, spec, "has no shard/cache status")
    service = default_service()
    cache = service.cache
    cache_dir = cache.directory if cache is not None else None

    jobs = spec.compile()
    keys = [job.cache_key() for job in jobs]
    distinct = sorted(set(keys))
    missing = [
        key
        for key in distinct
        if cache is None or not cache.contains(key)
    ]
    spec_hash = spec.spec_hash()

    manifest = load_manifest(cache_dir, name)
    manifest_current = (
        manifest is not None
        and manifest.spec_hash == spec_hash
        and manifest.job_keys == keys
    )

    found = find_shard_manifests(cache_dir, name)
    matching = {
        key: m for key, m in found.items() if m.spec_hash == spec_hash
    }
    if shards is not None:
        if shards < 1:
            raise ConfigurationError(
                f"shard count must be >= 1, got {shards}"
            )
        count: Optional[int] = shards
    else:
        counts = sorted({c for (_, c) in matching})
        count = counts[-1] if counts else None

    shard_statuses: List[ShardStatus] = []
    if count is not None:
        for index in range(count):
            m = found.get((index, count))
            shard_statuses.append(
                ShardStatus(
                    index=index,
                    count=count,
                    present=m is not None,
                    spec_match=m is not None and m.spec_hash == spec_hash,
                    cells=len(m.job_keys) if m is not None else 0,
                )
            )
    # Manifests outside the reported partitioning are *ignored*; a
    # hash-mismatched manifest inside it is already shown per-shard as
    # "STALE spec hash" and must not be double-counted here.
    if count is None:
        stale = len(found)
    else:
        stale = sum(1 for (_, c) in found if c != count)

    return ScenarioStatusReport(
        name=name,
        spec_hash=spec_hash,
        cells=len(jobs),
        distinct_keys=len(distinct),
        cached_keys=len(distinct) - len(missing),
        missing_keys=missing,
        cache_dir=cache_dir,
        manifest_present=manifest is not None,
        manifest_current=manifest_current,
        shard_count=count,
        shards=shard_statuses,
        stale_shard_manifests=stale,
    )


@dataclass
class ScenarioMergeReport:
    """What one ``scenario merge`` validated and wrote."""

    name: str
    shard_count: int
    cells: int
    manifest: ScenarioResult
    manifest_file: Optional[Path]


def merge_scenario(target: str, quick: bool = True) -> ScenarioMergeReport:
    """Union persisted shard manifests into the canonical manifest.

    Recompiles the spec (at the same fidelity the shards ran) to learn
    the expected job-key set, then merges the first complete,
    hash-matching partitioning found among the shard manifests next to
    the result cache (superseded shard sets from an earlier
    re-partitioning are ignored, keeping the merge idempotent);
    validation requires no missing shard, matching spec hashes, and
    pairwise-disjoint key sets whose union is exactly the compiled
    list. Raises :class:`~repro.errors.ShardMergeError` otherwise.
    """
    _, name, spec = resolve_spec(target, quick=quick)
    spec = require_spec(name, spec, "cannot be sharded or merged")
    service = default_service()
    cache_dir = service.cache.directory if service.cache is not None else None
    if cache_dir is None:
        raise ConfigurationError(
            "scenario merge reads shard manifests stored next to the "
            "on-disk result cache; pass --cache-dir (or set "
            "$REPRO_CACHE_DIR)"
        )
    jobs = spec.compile()
    spec_hash = spec.spec_hash()
    shards = find_shard_manifests(cache_dir, name)
    # A re-partitioned scenario (2-way yesterday, 3-way today) leaves
    # superseded shard manifests behind; merging must stay possible —
    # and idempotent — as long as one complete, hash-matching
    # partitioning exists. Only when none does do we hand the full set
    # to the merge for its detailed diagnosis (missing shards, stale
    # hashes, mixed counts).
    matching = {
        key: manifest
        for key, manifest in shards.items()
        if manifest.spec_hash == spec_hash
    }
    complete_counts = [
        count
        for count in sorted({key[1] for key in matching})
        if all((index, count) in matching for index in range(count))
    ]
    if complete_counts:
        count = complete_counts[-1]
        shards = {
            key: manifest
            for key, manifest in matching.items()
            if key[1] == count
        }
    merged = merge_shard_manifests(
        name, spec_hash, [job.cache_key() for job in jobs], shards
    )
    manifest_file = save_manifest(cache_dir, merged)
    return ScenarioMergeReport(
        name=name,
        shard_count=int(merged.summary.get("merged_from_shards", 0)),
        cells=len(jobs),
        manifest=merged,
        manifest_file=manifest_file,
    )
