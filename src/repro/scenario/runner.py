"""Compile and run scenarios (registered names or spec files).

Two entry points:

* :func:`run_spec` — the canonical sweep path: compile a
  :class:`~repro.scenario.spec.SweepSpec` and resolve every job
  through the execution service, returning
  :class:`~repro.core.sweep.GridRow` cells in compile order.
* :func:`run_scenario` — everything ``scenario run`` does: resolve a
  registered scenario (or load a spec file), resolve its compiled
  jobs as one batch (so ``--jobs N`` fans them out), hand the cells to
  the scenario's ``generate(cells)`` (or shape generic rows for a spec
  file), and persist a :class:`ScenarioResult` manifest next to the
  result cache for incremental re-runs. This batch is the only
  resolution of the run's cells: a spec-backed scenario's generator
  only shapes them.

Sharded execution rides the same entry point: ``run_scenario(...,
shard=ShardPlan(i, N))`` compiles the full spec and runs only the
deterministic shard ``i``. The shared on-disk cache is the only record
of what the shards did; whichever run finds every compiled key there
writes the canonical manifest.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from repro.core.experiment import ExperimentConfig
from repro.core.modes import ExecutionMode
from repro.core.sweep import GridRow
from repro.errors import ConfigurationError, UnknownSpecError
from repro.exec.job import JobOutcome, SimJob
from repro.exec.service import ExecutionService, default_service
from repro.exec.shard import ShardPlan
from repro.harness.report import render_table
from repro.scenario.manifest import (
    ScenarioResult,
    canonical_manifest,
    load_manifest,
    save_manifest,
)
from repro.scenario.registry import Scenario, get_scenario
from repro.scenario.spec import SweepSpec, load_spec_file


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


def _summary(outcomes: Sequence[JobOutcome]) -> Tuple[int, int, int]:
    """(simulated, from cache, infeasible) counts of one resolved batch.

    A batch's outcome is fresh exactly when the service simulated it:
    cache hits and in-batch duplicates come back ``from_cache``.
    """
    cache_hits = sum(1 for o in outcomes if o.from_cache)
    skipped = sum(1 for o in outcomes if not o.ran)
    return len(outcomes) - cache_hits, cache_hits, skipped


def run_spec(
    spec: SweepSpec, service: Optional[ExecutionService] = None
) -> List[GridRow]:
    """Run every cell of ``spec``; infeasible cells come back skipped."""
    if service is None:
        service = default_service()
    jobs = spec.compile()
    return _rows_from(jobs, service.run_jobs(jobs))


def run_configs(
    configs: Sequence[ExperimentConfig], modes: Sequence[ExecutionMode]
) -> List[GridRow]:
    """Run ``configs`` as one batch, in order, through the default
    service; infeasible cells come back skipped."""
    jobs = [SimJob(config=config, modes=tuple(modes)) for config in configs]
    return _rows_from(jobs, default_service().run_jobs(jobs))


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
    #: The canonical manifest, when this run wrote one (a shard writes
    #: it only once the shared cache holds every compiled key).
    manifest: Optional[ScenarioResult] = None
    manifest_file: Optional[Path] = None
    #: Set on sharded runs only.
    shard: Optional[ShardPlan] = None
    #: Total compiled cells across all shards (== ``cells`` unsharded).
    total_cells: int = 0


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
        if os.sep in target or target.endswith(".json"):
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
    the CLI's ``--jobs``/``--cache-dir`` flags configure). The compiled
    jobs are resolved as one batch, the only resolution of the run's
    cells: a registered scenario's ``generate(cells)`` shapes them into
    its rows, a spec file's cells become generic per-cell rows. The
    run's manifest is persisted next to the result cache when one is
    on disk. A spec-less scenario produces its rows itself with
    ``generate(quick=...)`` and has no manifest.

    With ``shard=ShardPlan(i, N)`` only the deterministic shard ``i``
    of the compiled job list runs (see :mod:`repro.exec.shard`); the
    rows are the generic per-cell records of that shard (a figure's
    own generator needs every cell of its spec). A shard writes the
    canonical manifest only once the on-disk cache holds every
    compiled key, and then resolves the whole job list through the
    service, so the manifest is the one a warm unsharded run writes
    and a torn cache entry re-simulates instead of being trusted.
    """
    scenario, name, spec = resolve_spec(target, quick=quick)
    if overrides:
        spec = override_spec(name, spec, overrides)
        # An overridden sweep is a different experiment: its rows come
        # from the generic per-cell path (a registered scenario's rows
        # describe its own spec) and its manifest lands under a
        # hash-qualified name so it never clobbers the canonical run
        # record.
        name = f"{name}@{spec.spec_hash()[:8]}"
        scenario = None
    if shard is not None:
        spec = require_spec(name, spec, "cannot be sharded")
        scenario = None
    if spec is None:
        rows = scenario.generate(quick=quick)
        return ScenarioRunReport(
            name=name,
            spec=None,
            rows=rows,
            text=_render(scenario, rows),
            cells=0,
            simulated=0,
            cache_hits=0,
            skipped=0,
            previously_completed=0,
        )

    service = default_service()
    cache_dir = service.cache.directory if service.cache is not None else None
    compiled = spec.compile()
    jobs = shard.select(compiled) if shard is not None else compiled
    job_keys = [job.cache_key() for job in jobs]
    previous = load_manifest(cache_dir, name)
    # Keys recorded for an older spec version still count: cells the
    # edit left unchanged remain cached under the same job hash.
    known = set(previous.job_keys) if previous is not None else set()
    previously_completed = sum(1 for key in job_keys if key in known)

    # An empty compile yields an empty batch, not an executor call.
    outcomes = service.run_jobs(jobs) if jobs else []
    cells = _rows_from(jobs, outcomes)
    if scenario is not None:
        rows = scenario.generate(cells)
        text = _render(scenario, rows)
    else:
        rows = generic_rows(cells)
        text = render_generic(rows)
    simulated, cache_hits, skipped = _summary(outcomes)

    manifest = None
    if shard is None:
        manifest = canonical_manifest(
            name, spec.spec_hash(), job_keys, simulated, cache_hits, skipped
        )
    elif cache_dir is not None:
        manifest = _manifest_if_cached(name, spec, compiled, service)
    manifest_file = (
        save_manifest(cache_dir, manifest) if manifest is not None else None
    )

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
        shard=shard,
        total_cells=len(compiled),
    )


def _render(scenario: Scenario, rows: Any) -> str:
    """A registered scenario's text report of its rows."""
    return scenario.render(rows) if scenario.render is not None else repr(rows)


def _manifest_if_cached(
    name: str,
    spec: SweepSpec,
    jobs: List[SimJob],
    service: ExecutionService,
) -> Optional[ScenarioResult]:
    """The canonical manifest, once the on-disk cache holds every key.

    Keys are probed in compile order, stopping at the first absent one.
    A complete cache is then resolved like any batch, so the summary is
    a warm run's (0 simulated) unless an entry was torn, in which case
    that key re-simulates and heals instead of being trusted.
    """
    keys = [job.cache_key() for job in jobs]
    if not all(service.cache.contains(key) for key in keys):
        return None
    return canonical_manifest(
        name, spec.spec_hash(), keys, *_summary(service.run_jobs(jobs))
    )


@dataclass
class ShardStatus:
    """How many of one shard's distinct keys the cache holds."""

    index: int
    count: int
    keys: int = 0
    cached: int = 0

    @property
    def complete(self) -> bool:
        return self.cached == self.keys

    def describe(self) -> str:
        return (
            f"shard {self.index}/{self.count}: {self.cached}/{self.keys} "
            f"key(s) cached" + (" — complete" if self.complete else "")
        )

    def to_payload(self) -> dict:
        """Plain-JSON form for ``scenario status --json``."""
        return {
            "index": self.index,
            "count": self.count,
            "keys": self.keys,
            "cached": self.cached,
            "complete": self.complete,
        }


@dataclass
class ScenarioStatusReport:
    """Everything ``scenario status`` reports about one scenario.

    Answers the operational questions of a (possibly sharded, possibly
    multi-machine) run against a shared cache directory: which job
    cache keys are still missing from the result cache (per shard of
    an N-way partitioning, when asked), and whether the canonical
    manifest reflects the current spec.
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
    #: One entry per shard of the requested partitioning (else empty).
    shards: List[ShardStatus]

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
        for shard in self.shards:
            lines.append(f"  {shard.describe()}")
        return "\n".join(lines)

    def to_payload(self) -> dict:
        """Machine-readable status (``scenario status --json``).

        Everything :meth:`describe` prints, as plain JSON types — a
        fleet operator (or the CI smoke job) can gate on
        ``missing_keys == []`` or a shard's ``complete`` without
        parsing the human rendering.
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
            "shards": [s.to_payload() for s in self.shards],
        }


def scenario_status(
    target: str,
    quick: bool = True,
    shards: Optional[int] = None,
) -> ScenarioStatusReport:
    """Report cache/manifest state for a scenario without running it.

    With ``shards=N`` it also counts, per shard of the N-way partition
    (:meth:`ShardPlan.assignments`), how many of that shard's keys the
    cache holds. Compiles the spec (at ``quick`` fidelity) but never
    simulates — the cache is only probed for key presence.
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

    shard_statuses: List[ShardStatus] = []
    if shards is not None:
        owner = ShardPlan.assignments(jobs, shards)
        shard_statuses = [ShardStatus(index, shards) for index in range(shards)]
        absent = set(missing)
        for key, index in owner.items():
            shard_statuses[index].keys += 1
            if key not in absent:
                shard_statuses[index].cached += 1

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
        shards=shard_statuses,
    )
