"""Pluggable job executors.

One interface, three implementations:

* :class:`SerialExecutor` runs jobs in-process, in order;
* :class:`ParallelExecutor` fans out over a
  :class:`concurrent.futures.ProcessPoolExecutor` (``--jobs N``);
* :class:`RemoteExecutor` submits the batch to a fleet coordinator
  (``--executor remote --coordinator URL``) and long-polls for the
  outcome payloads as remote workers land them in the coordinator's
  cache.

All return outcomes in submission order and all count every job they
actually execute in :attr:`Executor.jobs_executed` — a warm-cache rerun
must leave that counter untouched, which the equivalence tests assert.
Because each job is simulated with deterministic jitter seeded from the
config, the executors are bit-for-bit interchangeable.
"""

from __future__ import annotations

import abc
import time
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence

from repro.core.experiment import run_experiment
from repro.errors import ConfigurationError, InfeasibleConfigError
from repro.exec.job import JobOutcome, SimJob


def execute_job(job: SimJob) -> JobOutcome:
    """Run one job to completion (the executor-agnostic work unit).

    Infeasible cells (the paper's OOM cuts) come back as skipped
    outcomes rather than exceptions so a grid survives them; anything
    else propagates — a simulator bug should fail loudly, not poison
    the cache.
    """
    try:
        result = run_experiment(job.config, modes=job.modes)
    except InfeasibleConfigError as exc:
        return JobOutcome(job=job, skipped_reason=str(exc))
    return JobOutcome(job=job, result=result)


class Executor(abc.ABC):
    """Runs batches of jobs; implementations choose the fan-out."""

    def __init__(self) -> None:
        #: Jobs actually simulated by this executor (cache hits never
        #: reach an executor, so this is the "simulator invocations"
        #: counter the acceptance tests observe).
        self.jobs_executed = 0

    @abc.abstractmethod
    def _run_batch(self, jobs: Sequence[SimJob]) -> List[JobOutcome]:
        """Execute ``jobs``, returning outcomes in submission order."""

    def run(self, jobs: Sequence[SimJob]) -> List[JobOutcome]:
        """Execute a batch and account for it."""
        jobs = list(jobs)
        if not jobs:
            return []
        outcomes = self._run_batch(jobs)
        self.jobs_executed += len(jobs)
        return outcomes


class SerialExecutor(Executor):
    """In-process, in-order execution (the reference implementation)."""

    def _run_batch(self, jobs: Sequence[SimJob]) -> List[JobOutcome]:
        return [execute_job(job) for job in jobs]


class ParallelExecutor(Executor):
    """Process-pool fan-out.

    Each worker process memoizes its own plans/cost models (the shared
    :func:`~repro.exec.planning.default_planner` is per-process), so
    the speedup comes on top of, not instead of, plan reuse. Results
    are returned in submission order regardless of completion order.
    """

    def __init__(self, max_workers: Optional[int] = None):
        super().__init__()
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1")
        self.max_workers = max_workers

    def _run_batch(self, jobs: Sequence[SimJob]) -> List[JobOutcome]:
        if self.max_workers == 1 or len(jobs) == 1:
            # A one-slot pool only adds pickling overhead.
            return [execute_job(job) for job in jobs]
        with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
            return list(pool.map(execute_job, jobs))


class RemoteExecutor(Executor):
    """Dispatch the batch to a fleet coordinator's task queue.

    Each job compiles to its :class:`~repro.fleet.task.SimTask` wire
    form and is submitted in one request; the coordinator deduplicates
    against its queue and cache, and remote workers execute the misses.
    This executor then long-polls ``/outcomes`` with every key still
    waiting: the coordinator holds each call until those keys settle
    (or a bounded wait ends), so a batch usually takes one call.
    Outcomes are rebuilt from the returned payloads. Because tasks
    carry canonical job payloads and workers serialize with the cache's
    own functions, results are bit-for-bit what a local executor
    produces.
    """

    def __init__(self, coordinator: str, timeout: Optional[float] = None):
        super().__init__()
        from repro.fleet.protocol import normalize_url

        self.coordinator = normalize_url(coordinator)
        self.timeout = timeout

    def _run_batch(self, jobs: Sequence[SimJob]) -> List[JobOutcome]:
        from repro.errors import FleetError
        from repro.exec.cache import outcome_from_payload
        from repro.fleet.protocol import OUTCOME_WAIT_S, request_json
        from repro.fleet.task import ADHOC_SPEC_HASH, task_from_job

        by_key = {}
        for job in jobs:
            by_key.setdefault(job.cache_key(), job)
        request_json(
            f"{self.coordinator}/submit",
            {
                "tasks": [
                    task_from_job(job, ADHOC_SPEC_HASH).to_payload()
                    for job in by_key.values()
                ]
            },
        )
        deadline = (
            None if self.timeout is None
            else time.monotonic() + self.timeout  # repro: allow[D101] operational poll deadline, not simulated state
        )
        payloads: dict = {}
        waiting = list(by_key)
        while waiting:
            wait_s = OUTCOME_WAIT_S
            if deadline is not None:
                wait_s = min(wait_s, max(0.0, deadline - time.monotonic()))  # repro: allow[D101] operational poll deadline
            response = request_json(
                f"{self.coordinator}/outcomes",
                {"keys": waiting, "wait_s": wait_s},
            )
            failed = response["failed"]
            if failed:
                key, error = next(iter(failed.items()))
                raise FleetError(
                    f"job {key[:16]}... failed permanently on the "
                    f"fleet: {error}"
                )
            missing = response["missing"]
            if missing:
                # Never re-poll: the coordinator has no task and no
                # outcome for this key, so waiting cannot help.
                raise FleetError(
                    f"coordinator {self.coordinator} has no task or "
                    f"outcome for job {missing[0][:16]}..."
                )
            payloads.update(response["outcomes"])
            waiting = [key for key in waiting if key not in payloads]
            if waiting and wait_s < OUTCOME_WAIT_S:
                # The window was cut to the deadline and ran out.
                raise FleetError(
                    f"coordinator {self.coordinator} did not resolve "
                    f"{len(waiting)} job(s) within {self.timeout}s"
                )
        outcomes = []
        for job in jobs:
            outcome = outcome_from_payload(
                job, payloads[job.cache_key()]
            )
            if outcome is None:
                raise FleetError(
                    f"coordinator returned an unusable payload for "
                    f"{job.cache_key()[:16]}..."
                )
            # These outcomes *were* executed for this batch (possibly
            # served from the coordinator's cache — the remote analogue
            # of a local executor's fresh run, not a local cache hit).
            outcomes.append(
                JobOutcome(
                    job=job,
                    result=outcome.result,
                    skipped_reason=outcome.skipped_reason,
                    from_cache=False,
                )
            )
        return outcomes
