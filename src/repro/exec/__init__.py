"""The experiment execution service.

This package turns the monolithic ``run_experiment`` path into a
job-based service:

* :mod:`repro.exec.job` — a frozen, hashable :class:`SimJob` spec
  (config + modes -> deterministic cache key) and the
  :class:`JobOutcome` it produces;
* :mod:`repro.exec.planning` — shared memoization of ``build_plan``,
  ``make_node`` and the :class:`CollectiveCostModel` across grid cells
  that agree on (node, model, shape, strategy);
* :mod:`repro.exec.cache` — in-memory + on-disk JSON result cache keyed
  on the job hash, so repeated figure/analysis runs skip cells that
  were already simulated;
* :mod:`repro.exec.executors` — pluggable executors behind one
  interface: :class:`SerialExecutor`, a process-pool backed
  :class:`ParallelExecutor` (``--jobs N``) and a fleet-dispatch
  :class:`RemoteExecutor` (``--executor remote --coordinator URL``);
* :mod:`repro.exec.shard` — :class:`ShardPlan`, the deterministic
  round-robin partition (sorted cache keys) that splits a compiled job
  list across independent workers (``--shard i/N``);
* :mod:`repro.exec.service` — :class:`ExecutionService` tying the
  pieces together, plus the process-wide default service the CLI
  configures via ``--jobs`` / ``--executor`` / ``--no-cache``.

Executors are interchangeable: the simulator's deterministic jitter
seeding guarantees bit-for-bit identical results regardless of how the
jobs are fanned out.
"""

from repro.exec.job import JobOutcome, SimJob
from repro.exec.planning import Planner, default_planner, reset_default_planner
from repro.exec.cache import ResultCache
from repro.exec.executors import (
    Executor,
    ParallelExecutor,
    RemoteExecutor,
    SerialExecutor,
    execute_job,
)
from repro.exec.shard import ShardPlan
from repro.exec.service import (
    ExecutionService,
    configure,
    default_service,
    reset_default_service,
)

__all__ = [
    "ExecutionService",
    "Executor",
    "JobOutcome",
    "ParallelExecutor",
    "Planner",
    "RemoteExecutor",
    "ResultCache",
    "SerialExecutor",
    "ShardPlan",
    "SimJob",
    "configure",
    "default_planner",
    "default_service",
    "execute_job",
    "reset_default_planner",
    "reset_default_service",
]
