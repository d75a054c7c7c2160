"""Coordinator-side task queue: leases, heartbeats, retries, backoff.

:class:`TaskQueue` is the pure state machine behind the HTTP
coordinator — no sockets, no threads of its own, injectable clock —
so every lease/requeue/backoff rule is unit-testable in isolation.

Lifecycle of one task (identified by its job cache key):

``pending`` --lease--> ``leased`` --complete--> ``done``

A leased task whose deadline passes without a heartbeat is *reaped*:
its worker is counted dead and the task requeues with exponential
backoff, up to ``max_retries`` re-leases; past that it moves to
``failed`` (the dead-letter state — the queue can drain *unfinished*,
and the coordinator reports rather than spins). A limping worker that
completes after being reaped is still honored: results are
deterministic, so a late completion marks the task done and any
replacement lease is dropped on push.

The queue also carries the coordinator's long-poll holds: one
condition over the queue lock is notified whenever a task becomes
pending, completes or dead-letters, so an idle worker's lease
(:meth:`TaskQueue.lease_with_hint` with ``hold``) and a client
waiting on its keys (:meth:`TaskQueue.await_settled`) block on it
instead of polling. :meth:`TaskQueue.close` ends every hold.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import FleetError
from repro.fleet.task import SimTask

#: Default seconds a lease stays valid without a heartbeat.
DEFAULT_LEASE_TIMEOUT = 30.0

#: Default re-lease budget after the first attempt.
DEFAULT_MAX_RETRIES = 3


@dataclass
class FleetStats:
    """Cumulative counters one coordinator accumulates.

    ``leased`` counts every lease handed out (including re-leases);
    ``requeued`` the reaped-and-requeued transitions; ``retries`` the
    leases that were not a task's first (``attempt > 0``);
    ``dead_workers`` the distinct worker ids that ever let a lease
    expire.
    """

    submitted: int = 0
    leased: int = 0
    completed: int = 0
    infeasible: int = 0
    requeued: int = 0
    retries: int = 0
    failed: int = 0
    duplicates: int = 0
    dead_workers: int = 0

    def to_payload(self) -> dict:
        return {
            "submitted": self.submitted,
            "leased": self.leased,
            "completed": self.completed,
            "infeasible": self.infeasible,
            "requeued": self.requeued,
            "retries": self.retries,
            "failed": self.failed,
            "duplicates": self.duplicates,
            "dead_workers": self.dead_workers,
        }


@dataclass
class Lease:
    """One outstanding lease of a task to a worker."""

    lease_id: str
    key: str
    worker: str
    deadline: float


@dataclass
class _TaskState:
    task: SimTask
    #: Leases handed out so far (the wire ``attempt`` of the *next*
    #: lease).
    attempts: int = 0
    #: Monotonic instant before which the task may not re-lease
    #: (exponential backoff after a reap or a reported failure).
    not_before: float = 0.0
    #: Last error a worker reported for this task, for diagnostics.
    last_error: Optional[str] = None
    lease: Optional[Lease] = None


class TaskQueue:
    """Thread-safe lease queue over :class:`SimTask` payloads."""

    def __init__(
        self,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if lease_timeout <= 0:
            raise FleetError("lease_timeout must be positive")
        if max_retries < 0:
            raise FleetError("max_retries must be >= 0")
        self.lease_timeout = lease_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._clock = clock
        self._lock = threading.Lock()
        #: Notified (under ``_lock``) whenever a task becomes pending,
        #: completes or dead-letters, and on :meth:`close`.
        self._cond = threading.Condition(self._lock)
        self._closed = False
        # Insertion order is lease order (compile order), which keeps a
        # one-worker fleet running cells in the serial run's order.
        self._pending: "OrderedDict[str, _TaskState]" = OrderedDict()
        self._leased: Dict[str, _TaskState] = {}
        self._leases: Dict[str, Lease] = {}
        self._done: Dict[str, bool] = {}  # key -> infeasible?
        self._failed: Dict[str, _TaskState] = {}
        self._dead_workers: set = set()
        self._lease_ids = itertools.count(1)
        self.stats = FleetStats()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def add(self, task: SimTask) -> bool:
        """Enqueue one task; duplicates of any known key are ignored."""
        with self._lock:
            key = task.cache_key
            if (
                key in self._pending
                or key in self._leased
                or key in self._done
                or key in self._failed
            ):
                return False
            self._pending[key] = _TaskState(task=task)
            self.stats.submitted += 1
            self._cond.notify_all()
            return True

    # ------------------------------------------------------------------
    # Leasing
    # ------------------------------------------------------------------

    def lease_with_hint(
        self, worker: str, hold: float = 0.0
    ) -> Tuple[Optional[Tuple[Lease, SimTask]], Optional[float]]:
        """Hand the next eligible task to ``worker``, plus a retry hint
        when nothing is leasable.

        No task (``None``) means "nothing leasable right now": the
        queue may still hold leased tasks or backoff-gated retries;
        callers distinguish via :meth:`drained`.

        The hint is the delta (seconds) until the earliest pending
        task's backoff gate opens — i.e. how long a worker can sleep
        before asking again and be *guaranteed* something became
        leasable in between. ``None`` when a task was leased, or when
        nothing is pending at all (in-flight leases may still requeue,
        so callers fall back to their poll interval). Computed under
        the same lock as the lease scan so the hint can never refer to
        a task another worker took first.

        With ``hold > 0``, a pass that finds nothing pending at all
        (no task leased, no backoff hint) blocks for up to ``hold``
        seconds until a task becomes pending or the queue closes, then
        leases once more.
        """
        with self._lock:
            leased, hint = self._lease_with_hint_locked(worker)
            if (
                leased is not None
                or hint is not None
                or hold <= 0
                or self._closed
            ):
                return leased, hint
            self._cond.wait_for(
                lambda: self._pending or self._closed, hold
            )
            return self._lease_with_hint_locked(worker)

    def _lease_with_hint_locked(
        self, worker: str
    ) -> Tuple[Optional[Tuple[Lease, SimTask]], Optional[float]]:
        now = self._clock()
        self._reap_locked(now)
        leased = self._lease_locked(worker, now)
        if leased is not None:
            return leased, None
        if self._pending:
            gate = min(s.not_before for s in self._pending.values())
            return None, max(0.0, gate - now)
        return None, None

    def _lease_locked(
        self, worker: str, now: float
    ) -> Optional[Tuple[Lease, SimTask]]:
        for key, state in self._pending.items():
            if state.not_before > now:
                continue
            del self._pending[key]
            lease = Lease(
                lease_id=f"L{next(self._lease_ids)}",
                key=key,
                worker=worker,
                deadline=now + self.lease_timeout,
            )
            state.lease = lease
            wire_task = SimTask(
                code_version=state.task.code_version,
                spec_hash=state.task.spec_hash,
                cache_key=state.task.cache_key,
                config=state.task.config,
                modes=state.task.modes,
                seed=state.task.seed,
                attempt=state.attempts,
            )
            state.attempts += 1
            self._leased[key] = state
            self._leases[lease.lease_id] = lease
            self.stats.leased += 1
            if wire_task.attempt > 0:
                self.stats.retries += 1
            return lease, wire_task
        return None

    def heartbeat(self, lease_id: str) -> bool:
        """Extend a live lease; ``False`` if it expired or is unknown."""
        with self._lock:
            now = self._clock()
            self._reap_locked(now)
            lease = self._leases.get(lease_id)
            if lease is None:
                return False
            lease.deadline = now + self.lease_timeout
            return True

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def complete(
        self, key: str, infeasible: bool, lease_id: Optional[str] = None
    ) -> bool:
        """Mark ``key`` done; returns ``False`` for a duplicate push.

        Accepts completions whose lease already expired (a limping
        worker finishing late): the result is deterministic, so the
        work is honored and any replacement lease is dropped.
        """
        with self._lock:
            if lease_id is not None:
                lease = self._leases.pop(lease_id, None)
                if lease is not None:
                    self._drop_lease_locked(lease)
            if key in self._done:
                self.stats.duplicates += 1
                return False
            state = self._leased.pop(key, None)
            if state is None:
                state = self._pending.pop(key, None)
            if state is None:
                state = self._failed.pop(key, None)
                if state is not None:
                    self.stats.failed -= 1
            if state is not None and state.lease is not None:
                self._leases.pop(state.lease.lease_id, None)
                state.lease = None
            self._done[key] = infeasible
            self.stats.completed += 1
            if infeasible:
                self.stats.infeasible += 1
            self._cond.notify_all()
            return True

    def fail(self, lease_id: str, error: str) -> None:
        """A worker reported an execution error: requeue with backoff."""
        with self._lock:
            now = self._clock()
            lease = self._leases.pop(lease_id, None)
            if lease is None:
                return
            state = self._leased.pop(lease.key, None)
            if state is None:
                return
            state.lease = None
            state.last_error = error
            self._requeue_locked(state, now)

    # ------------------------------------------------------------------
    # Reaping
    # ------------------------------------------------------------------

    def reap(self) -> List[str]:
        """Requeue every expired lease; returns the reaped keys."""
        with self._lock:
            return self._reap_locked(self._clock())

    def _drop_lease_locked(self, lease: Lease) -> None:
        state = self._leased.get(lease.key)
        if state is not None and state.lease is lease:
            state.lease = None

    def _reap_locked(self, now: float) -> List[str]:
        reaped: List[str] = []
        for lease_id, lease in list(self._leases.items()):
            if lease.deadline > now:
                continue
            del self._leases[lease_id]
            if lease.worker not in self._dead_workers:
                self._dead_workers.add(lease.worker)
                self.stats.dead_workers += 1
            state = self._leased.pop(lease.key, None)
            if state is None:
                continue
            state.lease = None
            state.last_error = (
                f"lease {lease_id} expired on worker {lease.worker!r}"
            )
            self._requeue_locked(state, now)
            reaped.append(lease.key)
        return reaped

    def _requeue_locked(self, state: _TaskState, now: float) -> None:
        if state.attempts > self.max_retries:
            self._failed[state.task.cache_key] = state
            self.stats.failed += 1
        else:
            backoff = min(
                self.backoff_cap,
                self.backoff_base * (2 ** max(0, state.attempts - 1)),
            )
            state.not_before = now + backoff
            self._pending[state.task.cache_key] = state
            self.stats.requeued += 1
        self._cond.notify_all()

    # ------------------------------------------------------------------
    # Long-poll holds
    # ------------------------------------------------------------------

    def await_settled(
        self, keys: List[str], timeout: float
    ) -> Tuple[List[str], Dict[str, str]]:
        """Block until none of ``keys`` is pending or leased.

        Returns at once when that already holds (a key the queue never
        saw is not open), otherwise when a completion or dead-letter
        settles the last open key, when the queue closes, or after
        ``timeout`` seconds. Returns the keys still open, and each
        dead-lettered key with its last recorded error, both in
        ``keys`` order.
        """
        with self._lock:
            self._cond.wait_for(
                lambda: self._closed
                or not any(map(self._is_open_locked, keys)),
                timeout,
            )
            failed = {
                k: self._failed[k].last_error or "failed"
                for k in keys
                if k in self._failed
            }
            return [k for k in keys if self._is_open_locked(k)], failed

    def _is_open_locked(self, key: str) -> bool:
        return key in self._pending or key in self._leased

    def close(self) -> None:
        """End every hold now and make later holds return at once.

        The coordinator closes its queue when it drains, so a worker
        held in ``/lease`` hears ``drained`` before the server stops.
        Leasing, completion and submission keep working.
        """
        with self._lock:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def drained(self) -> bool:
        """No work left: everything done or dead-lettered."""
        with self._lock:
            return not self._pending and not self._leased

    @property
    def succeeded(self) -> bool:
        """Drained with every submitted task completed."""
        with self._lock:
            return (
                not self._pending and not self._leased and not self._failed
            )

    def knows(self, key: str) -> bool:
        """Whether ``key`` is in any queue state (pending/leased/done/failed)."""
        with self._lock:
            return (
                key in self._pending
                or key in self._leased
                or key in self._done
                or key in self._failed
            )

    def done_keys(self) -> Dict[str, bool]:
        """Completed key -> infeasible flag (a snapshot copy)."""
        with self._lock:
            return dict(self._done)

    def failed_keys(self) -> Dict[str, str]:
        """Dead-lettered key -> last recorded error."""
        with self._lock:
            return {
                key: state.last_error or "failed"
                for key, state in self._failed.items()
            }

    def snapshot(self) -> dict:
        """JSON-ready queue state for the status endpoint."""
        with self._lock:
            self._reap_locked(self._clock())
            return {
                "pending": len(self._pending),
                "leased": len(self._leased),
                "done": len(self._done),
                "failed": len(self._failed),
                "workers": sorted(
                    {lease.worker for lease in self._leases.values()}
                ),
                "stats": self.stats.to_payload(),
            }
