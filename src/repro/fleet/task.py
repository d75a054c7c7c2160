"""The fleet's wire contract: :class:`SimTask`.

A :class:`SimTask` is the serializable unit of work a coordinator
leases to a worker: the canonical JSON form of one
:class:`~repro.exec.job.SimJob` (config + modes), plus the provenance
needed to keep a distributed sweep honest — the code-version ref both
sides must share for cache keys to mean the same thing, the hash of
the sweep spec the task was compiled from, the job's own cache key,
and the base seed (redundant with the config, carried explicitly so a
task is self-describing the way Snippet-style task contracts are).

Construction *is* validation: a task recomputes its job's cache key
from the embedded config + modes and refuses to exist if it disagrees
with the declared one, so a corrupted or tampered payload is rejected
at the wire boundary instead of poisoning the shared result cache
under the wrong key. :meth:`to_payload` / :meth:`from_payload`
round-trip through plain JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Tuple

from repro.core.modes import ExecutionMode
from repro.errors import TaskContractError
from repro.exec.job import CACHE_SCHEMA_VERSION, SimJob
from repro.version import __version__

#: Wire-protocol schema version (bump on incompatible payload changes).
TASK_SCHEMA_VERSION = 1

#: Spec-hash placeholder for tasks submitted outside any sweep spec
#: (e.g. :class:`~repro.exec.executors.RemoteExecutor` batches).
ADHOC_SPEC_HASH = "adhoc"


def code_version() -> str:
    """The code-version ref stamped into every task.

    Combines the package version with the cache schema version: two
    processes agreeing on this string agree on what a cache key means
    and on how results serialize, which is the invariant the fleet
    needs (a worker running different simulation semantics would land
    subtly wrong numbers under a valid-looking key).
    """
    return f"repro-{__version__}/cache-v{CACHE_SCHEMA_VERSION}"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise TaskContractError(message)


@dataclass(frozen=True)
class SimTask:
    """One leased unit of fleet work, validated at construction.

    ``config`` is the canonical JSON-compatible mapping of every
    :class:`~repro.core.experiment.ExperimentConfig` field (the same
    form :meth:`SimJob.payload` digests); ``modes`` the mode values to
    simulate. ``cache_key`` must equal the key the embedded job
    derives for itself — mismatches are rejected here, not downstream.
    """

    code_version: str
    spec_hash: str
    cache_key: str
    config: Mapping[str, Any]
    modes: Tuple[str, ...]
    seed: int = 0
    #: How many times this task has been leased (0 = never); carried on
    #: the wire so a worker can log retries, never part of identity.
    attempt: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        _require(
            isinstance(self.code_version, str) and bool(self.code_version),
            "code_version must be a non-empty string",
        )
        _require(
            isinstance(self.spec_hash, str) and bool(self.spec_hash),
            "spec_hash must be a non-empty string",
        )
        _require(
            isinstance(self.config, Mapping) and bool(self.config),
            "config must be a non-empty mapping",
        )
        object.__setattr__(self, "config", dict(self.config))
        _require(
            isinstance(self.modes, (tuple, list)) and bool(self.modes),
            "a task needs at least one execution mode",
        )
        object.__setattr__(self, "modes", tuple(self.modes))
        _require(
            all(isinstance(m, str) for m in self.modes),
            "modes must be mode value strings",
        )
        _require(
            isinstance(self.seed, int) and not isinstance(self.seed, bool),
            "seed must be an integer",
        )
        _require(
            isinstance(self.attempt, int) and self.attempt >= 0,
            "attempt must be a non-negative integer",
        )
        declared_seed = self.config.get("base_seed", 0)
        _require(
            declared_seed == self.seed,
            f"seed {self.seed} disagrees with config base_seed "
            f"{declared_seed!r}",
        )
        # The load-bearing check: the declared key must be the one the
        # embedded job derives for itself. TaskContractError (not the
        # job's own ConfigurationError) is what the wire boundary
        # reports for malformed configs too.
        try:
            derived = self.to_job().cache_key()
        except TaskContractError:
            raise
        except Exception as exc:
            raise TaskContractError(
                f"task config does not build a valid job: {exc}"
            ) from exc
        _require(
            isinstance(self.cache_key, str) and bool(self.cache_key),
            "cache_key must be a non-empty string",
        )
        _require(
            derived == self.cache_key,
            f"declared cache key {self.cache_key[:16]}... does not match "
            f"the key derived from the task's config + modes "
            f"({derived[:16]}...)",
        )

    def to_job(self) -> SimJob:
        """The live :class:`SimJob` this task describes."""
        from repro.scenario.spec import config_from_overrides

        try:
            config = config_from_overrides(self.config)
            modes = tuple(ExecutionMode(m) for m in self.modes)
            return SimJob(config=config, modes=modes)
        except TaskContractError:
            raise
        except Exception as exc:
            raise TaskContractError(
                f"task does not describe a buildable job: {exc}"
            ) from exc

    def to_payload(self) -> dict:
        """Plain-JSON wire form; :meth:`from_payload` round-trips it."""
        return {
            "schema": TASK_SCHEMA_VERSION,
            "code_version": self.code_version,
            "spec_hash": self.spec_hash,
            "cache_key": self.cache_key,
            "config": dict(self.config),
            "modes": list(self.modes),
            "seed": self.seed,
            "attempt": self.attempt,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SimTask":
        """Rebuild (and re-validate) a task from its wire form."""
        if not isinstance(payload, Mapping):
            raise TaskContractError(
                f"a task payload must be a mapping, got {payload!r}"
            )
        if payload.get("schema") != TASK_SCHEMA_VERSION:
            raise TaskContractError(
                f"unsupported task schema {payload.get('schema')!r} "
                f"(this build speaks {TASK_SCHEMA_VERSION})"
            )
        try:
            return cls(
                code_version=payload["code_version"],
                spec_hash=payload["spec_hash"],
                cache_key=payload["cache_key"],
                config=payload["config"],
                modes=tuple(payload["modes"]),
                seed=payload.get("seed", 0),
                attempt=payload.get("attempt", 0),
            )
        except TaskContractError:
            raise
        except (KeyError, TypeError) as exc:
            raise TaskContractError(
                f"malformed task payload: {exc!r}"
            ) from exc

    def describe(self) -> str:
        modes = "+".join(m[:3] for m in self.modes)
        return f"{self.cache_key[:12]}... [{modes}] attempt {self.attempt}"


def task_from_job(job: SimJob, spec_hash: str) -> SimTask:
    """Compile one job into its wire task.

    The config travels as the job's own canonical payload form, so the
    receiving side derives the identical cache key by construction.
    """
    payload = job.payload()
    # payload() omits default-valued fields to keep historical cache
    # keys stable; the wire config is the *full* field mapping so a
    # worker rebuilds the exact config without knowing the defaults.
    from repro.exec.job import _jsonable

    config = _jsonable(job.config)
    return SimTask(
        code_version=code_version(),
        spec_hash=spec_hash,
        cache_key=job.cache_key(),
        config=config,
        modes=tuple(payload["modes"]),
        seed=int(config.get("base_seed", 0)),
    )
