"""Job specifications for the execution service.

A :class:`SimJob` is the unit of work the service schedules: one grid
cell (an :class:`~repro.core.experiment.ExperimentConfig`) plus the
execution modes to simulate. Jobs are frozen and hashable, and their
:meth:`~SimJob.cache_key` is a deterministic digest of every field that
influences the simulation — the same job always maps to the same key,
across processes and across sessions, which is what makes the on-disk
result cache and the parallel executors safe.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.modes import ExecutionMode
from repro.errors import ConfigurationError, InfeasibleConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.experiment import ExperimentConfig, ExperimentResult

#: Bump when the simulation semantics change in a way that invalidates
#: previously cached results (cost model, metrics, jitter scheme, ...).
CACHE_SCHEMA_VERSION = 1

DEFAULT_MODES: Tuple[ExecutionMode, ...] = (
    ExecutionMode.OVERLAPPED,
    ExecutionMode.SEQUENTIAL,
    ExecutionMode.IDEAL,
)


def _jsonable(value: object) -> object:
    """Canonical JSON-compatible form of a config field value."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    return value


@dataclass(frozen=True)
class SimJob:
    """One deterministic unit of work: simulate ``config`` in ``modes``.

    Two jobs with equal payloads produce equal cache keys; anything
    that can change the simulated numbers (config fields, calibration
    overrides, mode set, schema version) is folded into the digest.
    """

    config: "ExperimentConfig"
    modes: Tuple[ExecutionMode, ...] = DEFAULT_MODES

    def __post_init__(self) -> None:
        if not self.modes:
            raise ConfigurationError("a SimJob needs at least one mode")
        # Normalize so (A, B) and [A, B] hash identically.
        object.__setattr__(self, "modes", tuple(self.modes))

    def payload(self) -> dict:
        """Canonical JSON payload the cache key digests."""
        config = _jsonable(self.config)
        if not config.get("perturbations"):
            # Fault-free cells (the default) keep their pre-existing
            # cache keys; perturbed cells hash their window specs.
            config.pop("perturbations", None)
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "config": config,
            "modes": [mode.value for mode in self.modes],
        }

    def cache_key(self) -> str:
        """Deterministic hex digest identifying this job's results.

        Computed once per job (the fields are frozen); a batch consults
        the key several times — dedup, store, fan-out — so it is cached
        on the instance rather than re-serialized each time.
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            canonical = json.dumps(
                self.payload(), sort_keys=True, separators=(",", ":")
            )
            key = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_cache_key", key)
        return key

    def describe(self) -> str:
        """Short label for logs and progress lines."""
        modes = "+".join(m.value[:3] for m in self.modes)
        return f"{self.config.describe()} [{modes}]"


@dataclass
class JobOutcome:
    """What the service hands back for one job.

    Exactly one of ``result`` / ``skipped_reason`` is set: either the
    cell simulated (possibly served from cache) or it was infeasible
    (the paper's OOM cells).
    """

    job: SimJob
    result: Optional["ExperimentResult"] = None
    skipped_reason: Optional[str] = None
    from_cache: bool = field(default=False, compare=False)

    @property
    def ran(self) -> bool:
        return self.result is not None

    def unwrap(self) -> "ExperimentResult":
        """The result, raising the original infeasibility otherwise."""
        if self.result is None:
            raise InfeasibleConfigError(
                self.skipped_reason or "job did not produce a result"
            )
        return self.result
