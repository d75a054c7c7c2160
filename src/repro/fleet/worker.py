"""The fleet worker: pull a task, simulate it, push the payload.

A :class:`FleetWorker` is a thin loop around the *existing* executor
surface: each leased :class:`~repro.fleet.task.SimTask` rebuilds its
:class:`~repro.exec.job.SimJob` (re-validating the cache key at the
wire boundary) and runs through whatever
:class:`~repro.exec.executors.Executor` the worker was built with —
serial by default, a process pool with ``--jobs N``. The outcome
serializes with the same payload functions the local disk cache uses,
so the bytes the coordinator lands are identical to a serial run's.

While executing, a daemon heartbeat thread keeps the lease alive at
the cadence the coordinator requested; a worker that is killed simply
stops heartbeating and its lease is reaped and requeued. Execution
*errors* (simulator bugs — infeasible cells are normal outcomes, not
errors) are reported back so the coordinator can retry within its
budget instead of waiting out the lease.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import FleetError, TaskContractError
from repro.exec.cache import outcome_to_payload
from repro.exec.executors import Executor, SerialExecutor
from repro.fleet.protocol import (
    CoordinatorUnreachable,
    ProtocolError,
    normalize_url,
    request_json,
)
from repro.fleet.task import SimTask, code_version


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class WorkerStats:
    """What one worker loop did, for logs and exit reporting."""

    completed: int = 0
    infeasible: int = 0
    errors: int = 0
    waits: int = 0


class _HeartbeatThread(threading.Thread):
    """Extends one lease until stopped.

    Transient failures are tolerated — the lease has a whole timeout
    of budget, so one dropped heartbeat must not stop the thread and
    silently let a long task's lease expire mid-execution. The thread
    only gives up when the coordinator explicitly reports the lease
    dead (``ok: false`` — expired or unknown), at which point there is
    nothing left to keep alive."""

    def __init__(self, url: str, lease_id: str, interval: float):
        super().__init__(daemon=True, name=f"heartbeat-{lease_id}")
        self._url = url
        self._lease_id = lease_id
        self._interval = interval
        # Not named ``_stop``: threading.Thread has a private ``_stop``
        # *method* that join() calls, and shadowing it with an Event
        # makes join() raise.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self._interval):
            try:
                response = request_json(
                    f"{self._url}/heartbeat", {"lease": self._lease_id}
                )
            except FleetError:
                continue  # transient: retry at the next beat
            if not response.get("ok", False):
                return  # lease expired or unknown; nothing to keep

    def stop(self) -> None:
        self._halt.set()


@dataclass
class FleetWorker:
    """Lease/execute/push loop against one coordinator URL."""

    url: str
    executor: Executor = field(default_factory=SerialExecutor)
    worker_id: str = field(default_factory=default_worker_id)
    #: Exit after this many completed tasks (None = run to drain).
    max_tasks: Optional[int] = None
    #: Exit after this many seconds with nothing leasable (None = wait
    #: for the coordinator to drain, however long that takes).
    max_idle_s: Optional[float] = None
    #: Retries before giving up on an unreachable coordinator.
    connect_retries: int = 5
    stats: WorkerStats = field(default_factory=WorkerStats)

    def __post_init__(self) -> None:
        self.url = normalize_url(self.url)

    # ------------------------------------------------------------------

    def _lease(self) -> Optional[dict]:
        failures = 0
        while True:
            try:
                return request_json(
                    f"{self.url}/lease", {"worker": self.worker_id}
                )
            except CoordinatorUnreachable:
                failures += 1
                if failures > self.connect_retries:
                    raise
                time.sleep(min(5.0, 0.2 * (2 ** failures)))

    def _push_result(self, body: dict) -> dict:
        """Push one result body, retrying transient connection drops.

        Losing the push would throw away a finished simulation — the
        lease expires, the coordinator requeues, and another worker
        redoes the work — so the push gets the same backoff budget as
        leasing. Protocol errors (the coordinator rejecting the body)
        still raise immediately: retrying an invalid push cannot help.
        """
        failures = 0
        while True:
            try:
                return request_json(f"{self.url}/result", body)
            except CoordinatorUnreachable:
                failures += 1
                if failures > self.connect_retries:
                    raise
                time.sleep(min(5.0, 0.2 * (2 ** failures)))

    def _execute(self, task: SimTask) -> dict:
        """Run one task through the executor; returns the result body."""
        job = task.to_job()
        try:
            outcome = self.executor.run([job])[0]
        except Exception as exc:  # simulator bug: report, let it retry
            return {"key": task.cache_key, "error": f"{type(exc).__name__}: {exc}"}
        return {"key": task.cache_key, "payload": outcome_to_payload(outcome)}

    def run_one(self, lease_body: dict) -> bool:
        """Handle one lease response; ``True`` if a task was executed."""
        task = SimTask.from_payload(lease_body["task"])
        mine = code_version()
        if task.code_version != mine:
            # Executing would land results computed by different code
            # under a key the coordinator trusts — refuse loudly.
            raise TaskContractError(
                f"task code version {task.code_version!r} != worker "
                f"{mine!r}; upgrade one side before serving this fleet"
            )
        lease_id = lease_body["lease"]
        heartbeat = _HeartbeatThread(
            self.url, lease_id, float(lease_body.get("heartbeat_s", 5.0))
        )
        heartbeat.start()
        try:
            body = self._execute(task)
        finally:
            heartbeat.stop()
        body["lease"] = lease_id
        response = self._push_result(body)
        acked = bool(response.get("ok", False))
        if "error" in body:
            self.stats.errors += 1
        elif acked:
            # Count completions only once the coordinator acknowledged
            # landing the payload; an unacked push will be redone after
            # the lease expires and must not inflate the tally.
            self.stats.completed += 1
            if "infeasible" in body["payload"]:
                self.stats.infeasible += 1
        return acked

    def run(self) -> WorkerStats:
        """Drain tasks until the coordinator reports ``drained``.

        Also returns on ``max_tasks``/``max_idle_s`` limits, or when
        the coordinator disappears for good (it drains, finalizes, and
        exits on its own schedule — an unreachable coordinator after a
        clean run of leases is a normal end, reported as such by the
        caller, not an exception here).
        """
        idle_since: Optional[float] = None
        while True:
            if (
                self.max_tasks is not None
                and self.stats.completed + self.stats.errors >= self.max_tasks
            ):
                return self.stats
            try:
                lease = self._lease()
            except CoordinatorUnreachable:
                # Gone for good after retries: treat a vanished
                # coordinator as end-of-work (it exits after draining).
                return self.stats
            state = lease.get("state")
            if state == "drained":
                return self.stats
            if state == "wait":
                self.stats.waits += 1
                if lease.get("backoff"):
                    # Every pending task is backoff-gated: work is
                    # *known* to arrive once the earliest retry gate
                    # opens, so this wait is not idleness and must not
                    # count toward the max_idle_s exit.
                    idle_since = None
                else:
                    now = time.monotonic()  # repro: allow[D101] idle-exit timer, not simulated state
                    if idle_since is None:
                        idle_since = now
                    elif (
                        self.max_idle_s is not None
                        and now - idle_since > self.max_idle_s
                    ):
                        return self.stats
                time.sleep(float(lease.get("retry_after_s", 0.2)))
                continue
            if state != "task":
                raise ProtocolError(
                    f"unexpected lease state {state!r} from {self.url}"
                )
            idle_since = None
            try:
                self.run_one(lease)
            except CoordinatorUnreachable:
                # The result push exhausted its retries: the work is
                # lost to us (the lease will expire and requeue), and a
                # coordinator that stays unreachable is the normal
                # end-of-run signal, same as a failed lease above.
                return self.stats
