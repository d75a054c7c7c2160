"""The execution service: cache + executor behind one entry point.

An :class:`ExecutionService` resolves each submitted job against the
result cache, fans the misses out through its executor, stores the
fresh outcomes and stitches everything back together in submission
order. The process-wide default service is what the scenario runner
and the analyses use implicitly (the figure generators only shape the
cells the runner resolved); the CLI reconfigures it via ``--jobs`` /
``--executor`` / ``--no-cache`` / ``--cache-dir``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.modes import ExecutionMode
from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache
from repro.exec.executors import (
    Executor,
    ParallelExecutor,
    RemoteExecutor,
    SerialExecutor,
)
from repro.exec.job import DEFAULT_MODES, JobOutcome, SimJob

#: Environment variable overriding the default fan-out width.
JOBS_ENV = "REPRO_JOBS"

#: Executor kinds ``--executor`` / :func:`configure` accept. ``None``
#: (auto) picks the process pool when ``jobs > 1``, serial otherwise;
#: ``remote`` needs a coordinator URL (``--coordinator``).
EXECUTOR_KINDS = ("serial", "process", "remote")


@dataclass
class ServiceStats:
    """Cumulative accounting for one service instance.

    ``submitted == simulated + cache_hits`` always holds (in-batch
    duplicates count as cache hits); ``skipped`` counts the outcomes
    that were infeasible, whichever way they were resolved.
    """

    submitted: int = 0
    simulated: int = 0
    cache_hits: int = 0
    skipped: int = 0


class ExecutionService:
    """Submit jobs; get outcomes; never simulate the same cell twice."""

    def __init__(
        self,
        executor: Optional[Executor] = None,
        cache: Optional[ResultCache] = None,
    ):
        self.executor = executor if executor is not None else SerialExecutor()
        self.cache = cache  # None disables caching entirely
        self.stats = ServiceStats()

    def run_jobs(self, jobs: Sequence[SimJob]) -> List[JobOutcome]:
        """Resolve a batch: cache first, executor for the misses."""
        jobs = list(jobs)
        self.stats.submitted += len(jobs)
        outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
        misses: List[Tuple[int, SimJob]] = []
        for index, job in enumerate(jobs):
            cached = self.cache.get(job) if self.cache is not None else None
            if cached is not None:
                self.stats.cache_hits += 1
                outcomes[index] = cached
            else:
                misses.append((index, job))
        # Deduplicate identical cells within one batch: simulate each
        # distinct key once and fan the outcome back out.
        unique: List[SimJob] = []
        first_index = {}
        for index, job in misses:
            key = job.cache_key()
            if key not in first_index:
                first_index[key] = index
                unique.append(job)
        fresh = self.executor.run(unique)
        self.stats.simulated += len(fresh)
        by_key = {
            job.cache_key(): outcome for job, outcome in zip(unique, fresh)
        }
        if self.cache is not None:
            for outcome in fresh:
                self.cache.put(outcome)
        for index, job in misses:
            key = job.cache_key()
            outcome = by_key[key]
            # A duplicate of a job simulated earlier in this same
            # batch counts as a (dedup) cache hit.
            duplicate = index != first_index[key]
            if duplicate:
                self.stats.cache_hits += 1
            outcomes[index] = JobOutcome(
                job=job,
                result=outcome.result,
                skipped_reason=outcome.skipped_reason,
                from_cache=duplicate,
            )
        self.stats.skipped += sum(
            1 for o in outcomes if o is not None and not o.ran
        )
        return [o for o in outcomes if o is not None]

    def run_job(self, job: SimJob) -> JobOutcome:
        """Resolve a single job."""
        return self.run_jobs([job])[0]

    def run_config(
        self,
        config,
        modes: Tuple[ExecutionMode, ...] = DEFAULT_MODES,
    ):
        """Cached drop-in for :func:`repro.core.experiment.run_experiment`.

        Raises :class:`~repro.errors.InfeasibleConfigError` for cells
        that do not fit, exactly like the direct path.
        """
        return self.run_job(SimJob(config=config, modes=modes)).unwrap()


@dataclass
class ExecutionSettings:
    """Process-wide defaults the CLI flags map onto."""

    jobs: int = 1
    cache: bool = True
    cache_dir: Optional[str] = None
    #: One of :data:`EXECUTOR_KINDS`, or ``None`` for the jobs-driven
    #: auto choice.
    executor: Optional[str] = None
    #: Fleet coordinator URL; required by (and only used with) the
    #: ``remote`` executor kind.
    coordinator: Optional[str] = None

    def build_executor(self) -> Executor:
        # Validated here, not just in configure(): library code builds
        # settings directly, and a typo'd kind must not silently fall
        # through to the auto choice.
        if self.executor is not None and self.executor not in EXECUTOR_KINDS:
            raise ConfigurationError(
                f"unknown executor {self.executor!r} "
                f"(known: {', '.join(EXECUTOR_KINDS)})"
            )
        if self.executor == "serial":
            return SerialExecutor()
        if self.executor == "process":
            return ParallelExecutor(max_workers=self.jobs)
        if self.executor == "remote":
            if not self.coordinator:
                raise ConfigurationError(
                    "the remote executor needs a fleet coordinator URL "
                    "(--coordinator URL, e.g. http://127.0.0.1:8765)"
                )
            return RemoteExecutor(self.coordinator)
        if self.jobs > 1:
            return ParallelExecutor(max_workers=self.jobs)
        return SerialExecutor()

    def build_service(self) -> ExecutionService:
        cache = ResultCache(self.cache_dir) if self.cache else None
        return ExecutionService(executor=self.build_executor(), cache=cache)


def _settings_from_env() -> ExecutionSettings:
    jobs = 1
    raw = os.environ.get(JOBS_ENV)
    if raw:
        try:
            jobs = max(1, int(raw))
        except ValueError:
            jobs = 1
    return ExecutionSettings(jobs=jobs)


_settings = _settings_from_env()
_default_service: Optional[ExecutionService] = None

#: Sentinel distinguishing "leave unchanged" from an explicit None.
_UNSET = object()


def configure(
    jobs=_UNSET,
    cache=_UNSET,
    cache_dir=_UNSET,
    executor=_UNSET,
    coordinator=_UNSET,
) -> ExecutionService:
    """Reconfigure and rebuild the process-wide default service.

    Omitted arguments keep their current value (``jobs`` therefore
    keeps the ``$REPRO_JOBS`` default unless explicitly overridden);
    ``cache_dir=None`` explicitly clears a previously set directory,
    falling back to ``$REPRO_CACHE_DIR`` / in-memory only, and
    ``executor=None`` restores the jobs-driven auto choice.
    """
    global _default_service
    if jobs is not _UNSET:
        if jobs is None or jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        _settings.jobs = jobs
    if cache is not _UNSET:
        _settings.cache = bool(cache)
    if cache_dir is not _UNSET:
        _settings.cache_dir = cache_dir
    if executor is not _UNSET:
        if executor is not None and executor not in EXECUTOR_KINDS:
            raise ConfigurationError(
                f"unknown executor {executor!r} "
                f"(known: {', '.join(EXECUTOR_KINDS)})"
            )
        _settings.executor = executor
    if coordinator is not _UNSET:
        _settings.coordinator = coordinator
    _default_service = _settings.build_service()
    return _default_service


def default_service() -> ExecutionService:
    """The shared service used by scenario runs and analyses."""
    global _default_service
    if _default_service is None:
        _default_service = _settings.build_service()
    return _default_service


def reset_default_service() -> None:
    """Drop the shared service (and its in-memory cache)."""
    global _default_service, _settings
    _default_service = None
    _settings = _settings_from_env()
