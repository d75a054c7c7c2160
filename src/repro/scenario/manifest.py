"""Scenario run manifests.

A :class:`ScenarioResult` records what one ``scenario run`` covered:
the spec hash, the per-cell job cache keys, and a small summary,
persisted under ``<cache-dir>/manifests/<name>.json`` — next to the
result cache. The *cache* is what skips recorded cells on a re-run
(each job key resolves to its stored result); the manifest is the
durable record of exactly which keys a scenario covered, which lets a
re-run report how many of its cells a previous run already completed
and lets tooling audit or diff what a scenario simulated.

Every writer — an unsharded run, the shard that completes a shared
cache, the fleet coordinator — builds its manifest through
:func:`canonical_manifest`, so equally warm runs write identical bytes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

# By name: perfbench's tracer wraps the ``repro.exec.cache`` attribute
# to count cache-entry bytes, and manifests are not cache entries.
from repro.exec.cache import write_json_atomic

MANIFEST_SCHEMA_VERSION = 1

#: Subdirectory of the result-cache directory holding manifests.
MANIFEST_SUBDIR = "manifests"


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name) or "scenario"


@dataclass
class ScenarioResult:
    """Manifest of one scenario run."""

    scenario: str
    spec_hash: str
    job_keys: List[str]
    summary: Dict[str, object] = field(default_factory=dict)

    def to_payload(self) -> Dict[str, object]:
        return {
            "schema": MANIFEST_SCHEMA_VERSION,
            "scenario": self.scenario,
            "spec_hash": self.spec_hash,
            "job_keys": list(self.job_keys),
            "summary": dict(self.summary),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> Optional["ScenarioResult"]:
        if payload.get("schema") != MANIFEST_SCHEMA_VERSION:
            return None
        try:
            return cls(
                scenario=str(payload["scenario"]),
                spec_hash=str(payload["spec_hash"]),
                job_keys=[str(k) for k in payload["job_keys"]],
                summary=dict(payload.get("summary", {})),
            )
        except (KeyError, TypeError, ValueError):
            return None


def canonical_manifest(
    name: str,
    spec_hash: str,
    job_keys: Sequence[str],
    simulated: int,
    cache_hits: int,
    infeasible: int,
) -> ScenarioResult:
    """The manifest of a run that resolved every compiled cell.

    ``job_keys`` is the compiled per-cell key list in compile order
    (duplicates kept); the summary counts per cell, except
    ``simulated``, which counts distinct keys simulated.
    """
    return ScenarioResult(
        scenario=name,
        spec_hash=spec_hash,
        job_keys=list(job_keys),
        summary={
            "cells": len(job_keys),
            "simulated": simulated,
            "cache_hits": cache_hits,
            "infeasible": infeasible,
        },
    )


def manifest_path(directory: "str | Path", name: str) -> Path:
    return Path(directory) / MANIFEST_SUBDIR / f"{_safe_name(name)}.json"


def _load_manifest_file(path: Path) -> Optional[ScenarioResult]:
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict):
        return None
    return ScenarioResult.from_payload(payload)


def load_manifest(
    directory: "Optional[str | Path]", name: str
) -> Optional[ScenarioResult]:
    """The persisted manifest for ``name``, or ``None``."""
    if directory is None:
        return None
    return _load_manifest_file(manifest_path(directory, name))


#: Summary keys whose disagreement constitutes *drift* when diffing
#: two manifests. Execution accounting (``simulated``, ``cache_hits``)
#: legitimately varies with cache warmth and sharding, so it is
#: reported but never fails a diff; coverage and physics-shaped counts
#: must match.
_DRIFT_SUMMARY_KEYS = ("cells", "infeasible")


@dataclass
class SummaryDelta:
    """One numeric summary key compared across two manifests."""

    key: str
    a: float
    b: float
    drift_relevant: bool

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def rel_delta(self) -> float:
        """Relative delta against ``a`` (absolute when ``a`` is 0)."""
        if self.a == 0:
            return abs(self.b)
        return abs(self.b - self.a) / abs(self.a)


@dataclass
class ManifestDiff:
    """Everything ``scenario diff`` compares between two manifests.

    ``drifted`` is the gate for the nonzero exit code: a spec-hash
    mismatch, any key-set delta, or a drift-relevant summary key whose
    relative delta exceeds ``tol``.
    """

    a_name: str
    b_name: str
    spec_hash_match: bool
    only_in_a: List[str]
    only_in_b: List[str]
    common_keys: int
    summary_deltas: List[SummaryDelta]
    tol: float

    @property
    def drifted(self) -> bool:
        if not self.spec_hash_match:
            return True
        if self.only_in_a or self.only_in_b:
            return True
        return any(
            d.drift_relevant and d.rel_delta > self.tol
            for d in self.summary_deltas
        )

    def describe(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"comparing {self.a_name!r} (A) vs {self.b_name!r} (B)",
            f"  spec hash: {'match' if self.spec_hash_match else 'MISMATCH'}",
            f"  job keys: {self.common_keys} shared, "
            f"{len(self.only_in_a)} only in A, "
            f"{len(self.only_in_b)} only in B",
        ]
        for keys, label in ((self.only_in_a, "A"), (self.only_in_b, "B")):
            for key in keys[:5]:
                lines.append(f"    only in {label}: {key[:16]}...")
            if len(keys) > 5:
                lines.append(f"    ... and {len(keys) - 5} more only in {label}")
        for d in self.summary_deltas:
            status = ""
            if d.drift_relevant and d.rel_delta > self.tol:
                status = "  DRIFT"
            elif not d.drift_relevant:
                status = "  (informational)"
            lines.append(
                f"  summary[{d.key}]: {d.a:g} -> {d.b:g} "
                f"(delta {d.delta:+g}){status}"
            )
        lines.append("result: " + ("DRIFT" if self.drifted else "no drift"))
        return "\n".join(lines)


def diff_manifests(
    a: ScenarioResult, b: ScenarioResult, tol: float = 0.0
) -> ManifestDiff:
    """Compare two scenario manifests for drift.

    Checks the spec hashes, the job-key sets (order-insensitive), and
    every numeric summary key the two share; only the coverage-shaped
    keys (:data:`_DRIFT_SUMMARY_KEYS`) count toward drift, with ``tol``
    as the relative tolerance.
    """
    keys_a, keys_b = set(a.job_keys), set(b.job_keys)
    deltas: List[SummaryDelta] = []
    for key in sorted(set(a.summary) & set(b.summary)):
        va, vb = a.summary[key], b.summary[key]
        if isinstance(va, bool) or isinstance(vb, bool):
            continue
        if not isinstance(va, (int, float)) or not isinstance(vb, (int, float)):
            continue
        deltas.append(
            SummaryDelta(
                key=key,
                a=float(va),
                b=float(vb),
                drift_relevant=key in _DRIFT_SUMMARY_KEYS,
            )
        )
    return ManifestDiff(
        a_name=a.scenario,
        b_name=b.scenario,
        spec_hash_match=a.spec_hash == b.spec_hash,
        only_in_a=sorted(keys_a - keys_b),
        only_in_b=sorted(keys_b - keys_a),
        common_keys=len(keys_a & keys_b),
        summary_deltas=deltas,
        tol=tol,
    )


def load_manifest_file(path: "str | Path") -> Optional[ScenarioResult]:
    """Load a manifest from an explicit file path (``scenario diff``)."""
    return _load_manifest_file(Path(path))


def save_manifest(
    directory: "Optional[str | Path]", result: ScenarioResult
) -> Optional[Path]:
    """Atomically persist ``result``; returns the path (or ``None``)."""
    if directory is None:
        return None
    path = manifest_path(directory, result.scenario)
    write_json_atomic(path, result.to_payload(), indent=2)
    return path
