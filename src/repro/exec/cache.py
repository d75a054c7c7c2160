"""Result caching keyed on :meth:`SimJob.cache_key`.

Two tiers behind one interface:

* an in-memory dict, always on, which deduplicates repeated cells
  within one process (e.g. the same baseline config appearing in
  several takeaway checks);
* an optional on-disk JSON store (one file per job hash), which lets a
  figure rerun or a follow-up analysis session skip every cell an
  earlier run already simulated.

Infeasible cells are cached too — re-deriving "does not fit" is cheap,
but caching it keeps warm grid reruns at exactly zero executor
submissions, which the equivalence tests assert.

The in-memory tier can be bounded: ``ResultCache(max_entries=N)`` (or
``$REPRO_CACHE_MAX``) evicts the least-recently-used outcome once the
map exceeds ``N`` entries. Eviction only touches the memory tier: with
a cache directory configured, an evicted cell re-loads from disk
instead of re-simulating; memory-only caches trade recompute for the
memory bound (an evicted cell re-simulates on its next read), so pair
a tight cap with ``--cache-dir`` when simulations are expensive.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Optional

from repro.core.feasibility import FeasibilityReport
from repro.core.metrics import OverlapMetrics
from repro.core.modes import ExecutionMode
from repro.errors import ConfigurationError
from repro.exec.job import CACHE_SCHEMA_VERSION, JobOutcome, SimJob
from repro.workloads.memory_footprint import MemoryFootprint

#: Environment variable supplying a default on-disk cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable bounding the in-memory tier (LRU eviction).
CACHE_MAX_ENV = "REPRO_CACHE_MAX"


def write_json_atomic(path: Path, payload: dict) -> None:
    """Write ``payload`` to ``path`` so readers never see a torn file.

    Unique temp name per writer (concurrent processes sharing the
    directory must not interleave into each other's file) + an atomic
    ``os.replace``: any number of writers may race on the same key and
    the file is always one writer's complete JSON — last writer wins,
    which is safe here because equal keys mean equal payloads.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.stem, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _max_entries_from_env() -> Optional[int]:
    raw = os.environ.get(CACHE_MAX_ENV)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        # Silently treating a typo (or 0) as "unbounded" would defeat
        # the memory cap the variable exists for.
        raise ConfigurationError(
            f"${CACHE_MAX_ENV} must be a positive integer, got {raw!r}"
        )
    return value


def result_to_payload(result) -> dict:
    """JSON payload for one :class:`ExperimentResult` (minus config).

    The config is not serialized: the cache key already pins it, and on
    load the caller supplies the live config object from the job.
    """
    return {
        "modes": {
            mode.value: {
                "e2e_s": stats.e2e_s,
                "compute_s": stats.compute_s,
                "comm_s": stats.comm_s,
                "avg_power_w": stats.avg_power_w,
                "peak_power_w": stats.peak_power_w,
                "energy_j": stats.energy_j,
                "min_clock_frac": stats.min_clock_frac,
                "e2e_samples": list(stats.e2e_samples),
            }
            for mode, stats in result.modes.items()
        },
        "metrics": {
            "compute_overlapping_s": result.metrics.compute_overlapping_s,
            "compute_sequential_s": result.metrics.compute_sequential_s,
            "comm_total_s": result.metrics.comm_total_s,
            "overlapped_comm_s": result.metrics.overlapped_comm_s,
            "overlap_ratio": result.metrics.overlap_ratio,
            "e2e_overlapping_s": result.metrics.e2e_overlapping_s,
            "e2e_sequential_measured_s": (
                result.metrics.e2e_sequential_measured_s
            ),
            "e2e_ideal_simulated_s": result.metrics.e2e_ideal_simulated_s,
        },
        "feasibility": {
            "fits": result.feasibility.fits,
            "reason": result.feasibility.reason,
            "capacity_bytes": result.feasibility.capacity_bytes,
            "footprint": {
                "states_bytes": result.feasibility.footprint.states_bytes,
                "activation_bytes": (
                    result.feasibility.footprint.activation_bytes
                ),
                "working_bytes": result.feasibility.footprint.working_bytes,
                "reserved_bytes": result.feasibility.footprint.reserved_bytes,
            },
        },
    }


def result_from_payload(config, payload: dict):
    """Rebuild an :class:`ExperimentResult` for ``config``."""
    from repro.core.experiment import ExperimentResult, ModeStats

    modes = {}
    for mode_value, stats in payload["modes"].items():
        mode = ExecutionMode(mode_value)
        modes[mode] = ModeStats(
            mode=mode,
            e2e_s=stats["e2e_s"],
            compute_s=stats["compute_s"],
            comm_s=stats["comm_s"],
            avg_power_w=stats["avg_power_w"],
            peak_power_w=stats["peak_power_w"],
            energy_j=stats["energy_j"],
            min_clock_frac=stats["min_clock_frac"],
            e2e_samples=list(stats["e2e_samples"]),
        )
    feas = payload["feasibility"]
    feasibility = FeasibilityReport(
        fits=feas["fits"],
        footprint=MemoryFootprint(**feas["footprint"]),
        capacity_bytes=feas["capacity_bytes"],
        reason=feas["reason"],
    )
    return ExperimentResult(
        config=config,
        modes=modes,
        metrics=OverlapMetrics(**payload["metrics"]),
        feasibility=feasibility,
    )


def outcome_to_payload(outcome: JobOutcome) -> dict:
    """Versioned JSON payload for one job outcome."""
    payload = {"schema": CACHE_SCHEMA_VERSION}
    if outcome.ran:
        payload["result"] = result_to_payload(outcome.result)
    else:
        payload["infeasible"] = outcome.skipped_reason or "infeasible"
    return payload


def outcome_from_payload(job: SimJob, payload: dict) -> Optional[JobOutcome]:
    """Rebuild a cached outcome; ``None`` when the payload is unusable."""
    if not isinstance(payload, dict):
        return None
    if payload.get("schema") != CACHE_SCHEMA_VERSION:
        return None
    if "infeasible" in payload:
        return JobOutcome(
            job=job, skipped_reason=payload["infeasible"], from_cache=True
        )
    # AttributeError covers structurally wrong payloads (a list where
    # the modes mapping should be, ...): a corrupted entry must read as
    # a miss — and be re-simulated and overwritten — never as a crash.
    try:
        result = result_from_payload(job.config, payload["result"])
    except (AttributeError, KeyError, TypeError, ValueError):
        return None
    return JobOutcome(job=job, result=result, from_cache=True)


class ResultCache:
    """In-memory + optional on-disk cache of job outcomes.

    ``max_entries`` (default: ``$REPRO_CACHE_MAX``, else unbounded)
    caps the in-memory tier with least-recently-used eviction.
    """

    def __init__(
        self,
        directory: "Optional[str | Path]" = None,
        max_entries: Optional[int] = None,
    ):
        if directory is None:
            directory = os.environ.get(CACHE_DIR_ENV) or None
        self.directory = Path(directory) if directory else None
        if (
            self.directory is not None
            and self.directory.exists()
            and not self.directory.is_dir()
        ):
            raise ConfigurationError(
                f"cache path {self.directory} exists and is not a directory"
            )
        if max_entries is None:
            max_entries = _max_entries_from_env()
        elif max_entries < 1:
            raise ConfigurationError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._memory: "OrderedDict[str, JobOutcome]" = OrderedDict()
        #: Raw payloads pushed via :meth:`put_payload` when no disk
        #: tier exists (the memory-only coordinator case).
        self._payloads: dict = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _remember(self, key: str, outcome: JobOutcome) -> None:
        """Insert/refresh one memory entry, evicting the LRU past cap."""
        self._memory[key] = outcome
        self._memory.move_to_end(key)
        if self.max_entries is not None:
            while len(self._memory) > self.max_entries:
                self._memory.popitem(last=False)
                self.evictions += 1

    def _path_for(self, key: str) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / f"{key}.json"

    def get(self, job: SimJob) -> Optional[JobOutcome]:
        """Cached outcome for ``job``, or ``None`` on a miss."""
        key = job.cache_key()
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            self.hits += 1
            return JobOutcome(
                job=job,
                result=cached.result,
                skipped_reason=cached.skipped_reason,
                from_cache=True,
            )
        payload = self._payloads.get(key)
        if payload is None:
            path = self._path_for(key)
            if path is not None and path.exists():
                try:
                    payload = json.loads(path.read_text())
                except (OSError, json.JSONDecodeError):
                    payload = None
        if payload is not None:
            outcome = outcome_from_payload(job, payload)
            if outcome is not None:
                self._remember(key, outcome)
                self.hits += 1
                return outcome
        self.misses += 1
        return None

    def put(self, outcome: JobOutcome) -> None:
        """Record one outcome in both tiers."""
        key = outcome.job.cache_key()
        self._remember(key, outcome)
        path = self._path_for(key)
        if path is None:
            return
        write_json_atomic(path, outcome_to_payload(outcome))

    def put_payload(self, key: str, payload: dict) -> None:
        """Store an already-serialized outcome payload under ``key``.

        The fleet coordinator's write path: a worker pushes the JSON
        payload over the wire and the coordinator has no live config to
        rebuild a :class:`JobOutcome` from, so the bytes land directly
        in the disk tier (the memory tier hydrates lazily on the next
        keyed :meth:`get`). The payload's schema version is validated —
        a worker running incompatible code must not poison the cache.
        Memory-only caches keep the payload in a side map so
        :meth:`contains` and :meth:`load_payload` still resolve it.
        """
        if not isinstance(payload, dict) or (
            payload.get("schema") != CACHE_SCHEMA_VERSION
        ):
            raise ConfigurationError(
                f"refusing to cache a payload with schema "
                f"{payload.get('schema') if isinstance(payload, dict) else payload!r} "
                f"(this build writes schema {CACHE_SCHEMA_VERSION})"
            )
        path = self._path_for(key)
        if path is None:
            self._payloads[key] = payload
            return
        write_json_atomic(path, payload)

    def load_payload(self, key: str) -> Optional[dict]:
        """The raw stored payload for ``key``, or ``None``.

        Serves the coordinator's outcome endpoint: the payload is
        relayed to remote clients verbatim, without rebuilding (or
        needing) the live result objects.
        """
        payload = self._payloads.get(key)
        if payload is not None:
            return payload
        path = self._path_for(key)
        if path is None or not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict):
            return None
        return payload

    def contains(self, key: str) -> bool:
        """Whether ``key`` is resolvable from either tier.

        A pure probe: no tiers are mutated, no hit/miss accounting, and
        the on-disk entry is not parsed (``scenario status`` walks whole
        grids; reading every payload would defeat the point). A
        corrupted disk entry therefore reports present here and heals
        on the next real :meth:`get`.
        """
        if key in self._memory or key in self._payloads:
            return True
        path = self._path_for(key)
        return path is not None and path.exists()

    def __len__(self) -> int:
        return len(self._memory)
