"""The fleet coordinator: a job-queue HTTP service over the cache.

One coordinator owns one :class:`~repro.fleet.queue.TaskQueue` and one
:class:`~repro.exec.cache.ResultCache`. It can be *seeded* from a
scenario (``scenario serve NAME``): the sweep spec compiles to its job
list, keys the shared cache already holds are skipped (the same
machinery ``scenario status`` reports), and the missing keys enqueue
as :class:`~repro.fleet.task.SimTask`\\ s. Workers lease tasks over
HTTP, execute them locally, and push the serialized outcome payloads
back; the coordinator lands them in the content-addressed cache and,
when the queue drains with every task accounted for, writes the
canonical :class:`~repro.scenario.manifest.ScenarioResult` manifest —
byte-identical to the one a serial ``scenario run`` of the same spec
writes against an equally warm cache.

The HTTP layer is stdlib :class:`http.server.ThreadingHTTPServer`;
every handler defers to the lock-guarded queue/cache, so concurrent
workers are safe. Liveness is lease-based: workers heartbeat while
executing, and the serve loop (plus every lease request) reaps expired
leases back into the queue with bounded retries and exponential
backoff — killing a worker mid-drain loses no tasks.

Waiting is long-polled, not polled: an idle worker's ``/lease`` and a
client's ``/outcomes`` block on the queue's condition until a task
arrives or their keys settle, each for a bounded time, so an idle
fleet costs one request per wait window rather than one per key per
tick.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    FleetError,
    TaskContractError,
)
from repro.exec.cache import ResultCache, outcome_from_payload
from repro.exec.job import SimJob
from repro.fleet.queue import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_MAX_RETRIES,
    TaskQueue,
)
from repro.fleet.protocol import OUTCOME_WAIT_S
from repro.fleet.task import SimTask, code_version, task_from_job
from repro.scenario.manifest import ScenarioResult, save_manifest

#: Default bind host — localhost only; a fleet that spans machines
#: opts into 0.0.0.0 explicitly.
DEFAULT_HOST = "127.0.0.1"

#: Ceiling on tasks handed out per batched lease request. A worker
#: holding a huge batch serializes the fleet (nothing for anyone else
#: to lease) and risks every lease in it expiring together.
MAX_LEASE_BATCH = 32


@dataclass
class FleetPlan:
    """A scenario compiled into fleet terms."""

    name: str
    spec_hash: str
    #: Per-cell job keys in compile order (duplicates preserved — this
    #: is exactly the manifest's ``job_keys`` list).
    job_keys: List[str]
    #: Distinct keys in first-appearance order -> one representative job.
    jobs_by_key: "Dict[str, SimJob]"

    @property
    def cells(self) -> int:
        return len(self.job_keys)


def compile_fleet_plan(target: str, quick: bool = True) -> FleetPlan:
    """Resolve and compile a scenario target into a :class:`FleetPlan`."""
    from repro.scenario.runner import require_spec, resolve_spec

    _, name, spec = resolve_spec(target, quick=quick)
    spec = require_spec(name, spec, "cannot be served to a fleet")
    jobs = spec.compile()
    jobs_by_key: "Dict[str, SimJob]" = {}
    job_keys: List[str] = []
    for job in jobs:
        key = job.cache_key()
        job_keys.append(key)
        jobs_by_key.setdefault(key, job)
    return FleetPlan(
        name=name,
        spec_hash=spec.spec_hash(),
        job_keys=job_keys,
        jobs_by_key=jobs_by_key,
    )


class FleetCoordinator:
    """Long-running coordinator serving tasks to pulling workers."""

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        host: str = DEFAULT_HOST,
        port: int = 0,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_retries: int = DEFAULT_MAX_RETRIES,
        poll_interval: float = 0.2,
        backoff_base: float = 0.5,
    ):
        self.cache = cache if cache is not None else ResultCache()
        self.queue = TaskQueue(
            lease_timeout=lease_timeout,
            max_retries=max_retries,
            backoff_base=backoff_base,
        )
        #: Serve-loop tick, idle-lease hold and backoff-wait floor (s).
        self.poll_interval = poll_interval
        self.plan: Optional[FleetPlan] = None
        # Guards the coordinator's own mutable state: handle_submit
        # runs on server threads concurrently with the serve loop's
        # finalization. The queue and cache carry their own locks (the
        # queue also owns the drain flag, :attr:`TaskQueue.closed`);
        # ``plan`` is written once before start() and is read-only
        # afterwards.
        self._state_lock = threading.Lock()
        #: key -> infeasible flag for keys resolved from the cache at
        #: seed time (worker completions live in the queue's done map).
        self._precached: Dict[str, bool] = {}
        self.manifest_file = None
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.coordinator = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Seeding
    # ------------------------------------------------------------------

    def seed_scenario(self, plan: FleetPlan) -> Tuple[int, int]:
        """Queue the plan's missing keys; returns (queued, precached).

        A key whose stored payload is unusable counts as missing and
        re-queues (see :meth:`_cached_flag`).
        """
        self.plan = plan
        queued = 0
        precached = 0
        for key, job in plan.jobs_by_key.items():
            flag = self._cached_flag(key, job)
            if flag is not None:
                with self._state_lock:
                    self._precached[key] = flag
                    precached = len(self._precached)
                continue
            if self.queue.add(task_from_job(job, plan.spec_hash)):
                queued += 1
        return queued, precached

    def _cached_flag(self, key: str, job: SimJob) -> Optional[bool]:
        """The infeasible flag of ``key``'s cached outcome, if usable.

        ``None`` when the cache holds nothing for ``key``, or holds an
        entry :func:`~repro.exec.cache.outcome_from_payload` cannot
        rebuild (a torn write from a crashed writer, a wrong schema, a
        mangled result). Such a key is a miss and re-queues, and the
        worker's fresh result overwrites the entry, exactly as the
        local cache's read path treats it.
        """
        payload = self.cache.load_payload(key)
        if payload is None or outcome_from_payload(job, payload) is None:
            return None
        return "infeasible" in payload

    # ------------------------------------------------------------------
    # Server lifecycle
    # ------------------------------------------------------------------

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> None:
        if self._thread is not None:
            raise FleetError("coordinator already started")
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            daemon=True,
            name="fleet-coordinator",
        )
        self._thread.start()

    def stop(self) -> None:
        """Tell polling workers to exit, then shut the server down.

        Serves ``drained`` for one worker wait plus slack (two poll
        intervals), so idle workers leave at once instead of backing
        off against a vanished coordinator.
        """
        self._shutdown(linger=2 * self.poll_interval)

    def _shutdown(self, linger: float) -> None:
        """Flip leases to ``drained``, keep serving ``linger`` s, stop.

        Closing the queue wakes every held request: a held ``/lease``
        answers ``drained`` at once and a held ``/outcomes`` answers
        with what it has, so none of them outlives the server.
        """
        self.queue.close()
        if self._thread is not None:
            time.sleep(linger)
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        # Also when never started: __init__ bound the listening socket.
        self._server.server_close()

    def serve_until_drained(
        self,
        timeout: Optional[float] = None,
        grace: float = 1.0,
    ) -> bool:
        """Block until the queue drains; returns ``True`` on success.

        Reaps expired leases each tick. On drain, finalizes the
        manifest when every task completed, then flips the lease
        endpoint to ``drained`` (so polling workers exit cleanly),
        keeps serving for ``grace`` seconds, and stops. ``False`` means
        the queue drained with dead-lettered tasks (or ``timeout``
        expired) — no manifest is written and the failures stay
        reported in status.
        """
        deadline = None if timeout is None else time.monotonic() + timeout  # repro: allow[D101] serve-loop deadline, not simulated state
        while True:
            self.queue.reap()
            if self.queue.drained:
                break
            if deadline is not None and time.monotonic() > deadline:  # repro: allow[D101] serve-loop deadline
                self._shutdown(linger=grace)
                return False
            time.sleep(self.poll_interval)
        ok = self.queue.succeeded
        if ok:
            self.finalize()
        self._shutdown(linger=grace)
        return ok

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------

    def _resolved_flags(self) -> Dict[str, bool]:
        with self._state_lock:
            flags = dict(self._precached)
        flags.update(self.queue.done_keys())
        return flags

    def finalize(self) -> Optional[ScenarioResult]:
        """Write the canonical manifest once the sweep completed.

        The summary reproduces the serial accounting exactly: every
        compiled cell is one submission; distinct keys the workers
        executed count as ``simulated``, everything else (pre-cached
        keys and in-sweep duplicates) as ``cache_hits``; ``infeasible``
        counts per cell, cache hits included.
        """
        plan = self.plan
        if plan is None:
            return None
        flags = self._resolved_flags()
        missing = [k for k in plan.jobs_by_key if k not in flags]
        if missing:
            raise FleetError(
                f"cannot finalize {plan.name!r}: {len(missing)} key(s) "
                f"unresolved (first: {missing[0][:16]}...)"
            )
        simulated = self.queue.stats.completed
        manifest = ScenarioResult(
            scenario=plan.name,
            spec_hash=plan.spec_hash,
            job_keys=list(plan.job_keys),
            summary={
                "cells": plan.cells,
                "simulated": simulated,
                "cache_hits": plan.cells - simulated,
                "infeasible": sum(1 for k in plan.job_keys if flags[k]),
            },
        )
        manifest_file = save_manifest(self.cache.directory, manifest)
        with self._state_lock:
            self.manifest_file = manifest_file
        return manifest

    # ------------------------------------------------------------------
    # Request handling (called from server threads)
    # ------------------------------------------------------------------

    def handle_lease(self, body: dict) -> dict:
        worker = str(body.get("worker") or "anonymous")
        if self.queue.closed:
            return {"state": "drained"}
        batched = "n" in body
        if batched:
            try:
                n = int(body["n"])
            except (TypeError, ValueError):
                raise TaskContractError("lease 'n' must be an integer")
            if n < 1:
                raise TaskContractError("lease 'n' must be >= 1")
            n = min(n, MAX_LEASE_BATCH)
        else:
            n = 1
        # An idle worker's request is held for up to one poll interval
        # until a task becomes pending, so it hears of new work at once.
        leased, hint = self.queue.lease_many_with_hint(
            worker, n, hold=self.poll_interval
        )
        if not leased:
            # Nothing leasable *right now*: tasks may be in flight, in
            # backoff, or (bare-queue mode) not submitted yet. Workers
            # wait; only the drain flip answers drained.
            if hint is None:
                if self.queue.closed:
                    return {"state": "drained"}
                # The hold was the wait: ask again straight away.
                return {"state": "wait", "retry_after_s": 0.0}
            # Every pending task is backoff-gated: tell the worker
            # exactly how long until the earliest gate opens (floored
            # at the poll interval, capped so a worker never oversleeps
            # a drain) and flag the wait so it does not count as idle.
            retry = min(max(hint, self.poll_interval), 30.0)
            return {"state": "wait", "retry_after_s": retry, "backoff": True}
        lease, task = leased[0]
        response = {
            "state": "task",
            "lease": lease.lease_id,
            "deadline_s": self.queue.lease_timeout,
            "heartbeat_s": self.queue.lease_timeout / 3.0,
            "task": task.to_payload(),
        }
        if batched:
            # Batch shape only for workers that asked for it ("n" in
            # the request, even n=1); a legacy worker keeps receiving
            # the exact single-task response above.
            response["tasks"] = [
                {"lease": lse.lease_id, "task": tsk.to_payload()}
                for lse, tsk in leased
            ]
        return response

    def handle_heartbeat(self, body: dict) -> dict:
        lease_id = str(body.get("lease") or "")
        return {"ok": self.queue.heartbeat(lease_id)}

    def handle_result(self, body: dict) -> dict:
        raw = body.get("results")
        if raw is None:
            return self._handle_one_result(body)
        if not isinstance(raw, list) or not raw:
            raise TaskContractError(
                "batched result push needs a non-empty 'results' list"
            )
        # Per-element outcomes: one malformed entry must not discard
        # its siblings' finished simulations (each element is validated
        # and landed exactly as a single push would be).
        states = []
        for item in raw:
            if not isinstance(item, dict):
                states.append(
                    {"ok": False, "error": "result entry must be an object"}
                )
                continue
            try:
                states.append(self._handle_one_result(item))
            except (TaskContractError, ConfigurationError) as exc:
                states.append({"ok": False, "error": str(exc)})
        return {
            "ok": all(state.get("ok", False) for state in states),
            "states": states,
        }

    def _handle_one_result(self, body: dict) -> dict:
        key = body.get("key")
        lease_id = body.get("lease")
        if not isinstance(key, str) or not key:
            raise TaskContractError("result push needs a 'key'")
        # Only keys this coordinator handed out (or was seeded with)
        # may land in the cache.
        if not self._knows_key(key):
            raise TaskContractError(
                f"unknown task key {key[:16]}...; this coordinator never "
                f"issued it"
            )
        error = body.get("error")
        if error is not None:
            if isinstance(lease_id, str) and lease_id:
                self.queue.fail(lease_id, str(error))
            return {"ok": True, "state": "requeued"}
        payload = body.get("payload")
        if not isinstance(payload, dict):
            raise TaskContractError("result push needs a 'payload' object")
        self.cache.put_payload(key, payload)  # validates the schema
        fresh = self.queue.complete(
            key,
            infeasible="infeasible" in payload,
            lease_id=lease_id if isinstance(lease_id, str) else None,
        )
        return {"ok": True, "state": "done" if fresh else "duplicate"}

    def _knows_key(self, key: str) -> bool:
        if self.plan is not None and key in self.plan.jobs_by_key:
            return True
        return self.queue.knows(key)

    def handle_submit(self, body: dict) -> dict:
        raw_tasks = body.get("tasks")
        if not isinstance(raw_tasks, list) or not raw_tasks:
            raise TaskContractError("submit needs a non-empty 'tasks' list")
        mine = code_version()
        states = []
        for raw in raw_tasks:
            task = SimTask.from_payload(raw)  # full contract validation
            if task.code_version != mine:
                raise TaskContractError(
                    f"task code version {task.code_version!r} does not "
                    f"match this coordinator ({mine!r}); results would "
                    f"not be comparable"
                )
            flag = self._cached_flag(task.cache_key, task.to_job())
            if flag is not None:
                with self._state_lock:
                    self._precached.setdefault(task.cache_key, flag)
                states.append({"key": task.cache_key, "state": "cached"})
            elif self.queue.add(task):
                states.append({"key": task.cache_key, "state": "queued"})
            else:
                states.append({"key": task.cache_key, "state": "known"})
        return {"accepted": len(states), "tasks": states}

    def handle_outcomes(self, body: dict) -> dict:
        """Long-poll for ``keys``; see :mod:`repro.fleet.protocol`.

        Holds until no requested key is pending or leased (or the wait
        ends, or the coordinator drains), then reads the cache once.
        """
        keys = body.get("keys")
        if (
            not isinstance(keys, list)
            or not keys
            or not all(isinstance(k, str) and k for k in keys)
        ):
            raise TaskContractError(
                "outcomes needs a non-empty 'keys' list of non-empty "
                "strings"
            )
        wait_s = body.get("wait_s")
        if (
            isinstance(wait_s, bool)
            or not isinstance(wait_s, (int, float))
            or math.isnan(wait_s)
        ):
            raise TaskContractError("outcomes 'wait_s' must be a number")
        keys = list(dict.fromkeys(keys))
        still_open, failed = self.queue.await_settled(
            keys, min(max(float(wait_s), 0.0), OUTCOME_WAIT_S)
        )
        unsettled = set(still_open).union(failed)
        outcomes = {}
        missing = []
        for key in keys:
            if key in unsettled:
                continue
            payload = self.cache.load_payload(key)
            if payload is None:
                missing.append(key)
            else:
                outcomes[key] = payload
        return {"outcomes": outcomes, "failed": failed, "missing": missing}

    def status(self) -> dict:
        with self._state_lock:
            manifest_file = self.manifest_file
        report = {
            "code_version": code_version(),
            "draining": self.queue.closed,
            "queue": self.queue.snapshot(),
            "cache": {
                "dir": (
                    str(self.cache.directory)
                    if self.cache.directory is not None
                    else None
                ),
                "hits": self.cache.hits,
                "misses": self.cache.misses,
            },
        }
        if self.plan is not None:
            flags = self._resolved_flags()
            report["scenario"] = {
                "name": self.plan.name,
                "spec_hash": self.plan.spec_hash,
                "cells": self.plan.cells,
                "distinct_keys": len(self.plan.jobs_by_key),
                "resolved_keys": sum(
                    1 for k in self.plan.jobs_by_key if k in flags
                ),
                "manifest_file": (
                    str(manifest_file)
                    if manifest_file is not None
                    else None
                ),
            }
        failed = self.queue.failed_keys()
        if failed:
            report["failed"] = {
                k[:16]: v for k, v in sorted(failed.items())
            }
        return report


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the owning coordinator."""

    protocol_version = "HTTP/1.1"

    # Quiet by default: per-request stderr lines would swamp the CLI.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    @property
    def coordinator(self) -> FleetCoordinator:
        return self.server.coordinator  # type: ignore[attr-defined]

    def _send(self, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TaskContractError(f"request body is not JSON: {exc}")
        if not isinstance(body, dict):
            raise TaskContractError("request body must be a JSON object")
        return body

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        try:
            if self.path == "/status":
                self._send(200, self.coordinator.status())
            else:
                self._send(404, {"error": f"unknown path {self.path}"})
        except Exception as exc:  # never kill the server thread
            self._send(500, {"error": str(exc)})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        routes = {
            "/lease": self.coordinator.handle_lease,
            "/heartbeat": self.coordinator.handle_heartbeat,
            "/result": self.coordinator.handle_result,
            "/submit": self.coordinator.handle_submit,
            "/outcomes": self.coordinator.handle_outcomes,
        }
        handler = routes.get(self.path)
        try:
            if handler is None:
                self._send(404, {"error": f"unknown path {self.path}"})
                return
            body = self._read_body()
            self._send(200, handler(body))
        except (TaskContractError, ConfigurationError) as exc:
            self._send(400, {"error": str(exc)})
        except ConnectionError:
            # The client is gone (e.g. a worker killed while its lease
            # was held): there is no one to answer. A task leased to it
            # requeues when the lease expires.
            pass
        except Exception as exc:  # never kill the server thread
            self._send(500, {"error": str(exc)})
