"""End-to-end fleet runs over localhost HTTP.

The acceptance criteria of the fleet subsystem, gated here:

* a coordinator + two workers draining a scenario produce a manifest
  and per-key cache files *byte-for-byte identical* to a serial
  ``run_scenario`` of the same spec;
* killing a worker mid-run (simulated by a leased-but-never-completed
  zombie) loses no tasks — the lease expires, the task requeues, and
  the sweep still completes identically;
* the RemoteExecutor behind the standard Executor surface returns the
  same outcomes as a SerialExecutor, and fails loudly on dead-lettered
  or unknown keys;
* the long-poll holds of ``/outcomes`` and ``/lease`` answer as soon
  as their keys settle or a task arrives, and end on a drain;
* malformed / hash-mismatched / version-skewed submissions are
  rejected at the HTTP boundary with 400s.
"""

import http.client
import json
import socket
import struct
import threading
import time
import urllib.parse

import pytest
from test_exec_cache import CORRUPTIONS

from repro.core.experiment import ExperimentConfig
from repro.core.modes import ExecutionMode
from repro.errors import ConfigurationError, FleetError
from repro.exec.cache import ResultCache, outcome_to_payload
from repro.exec.executors import Executor, RemoteExecutor, SerialExecutor
from repro.exec.job import SimJob
from repro.exec.service import configure, reset_default_service
from repro.fleet import (
    FleetCoordinator,
    FleetPlan,
    FleetWorker,
    compile_fleet_plan,
    task_from_job,
)
from repro.fleet.protocol import ProtocolError, request_json
from repro.scenario import run_scenario

MODES = (ExecutionMode.OVERLAPPED, ExecutionMode.SEQUENTIAL)


@pytest.fixture(autouse=True)
def fresh_service():
    reset_default_service()
    yield
    reset_default_service()


def _job(batch: int) -> SimJob:
    return SimJob(
        config=ExperimentConfig(
            gpu="A100", model="gpt3-xl", batch_size=batch, runs=1
        ),
        modes=MODES,
    )


def _start_workers(url: str, count: int, **kwargs):
    workers = [
        FleetWorker(url=url, worker_id=f"w{i}", **kwargs)
        for i in range(count)
    ]
    threads = [
        threading.Thread(target=w.run, daemon=True, name=w.worker_id)
        for w in workers
    ]
    for thread in threads:
        thread.start()
    return workers, threads


def _tree_bytes(directory):
    return {
        path.name: path.read_bytes()
        for path in sorted(directory.rglob("*.json"))
    }


def test_fleet_run_is_bit_identical_to_serial_run(tmp_path):
    solo_dir = tmp_path / "solo"
    fleet_dir = tmp_path / "fleet"

    configure(cache=True, cache_dir=str(solo_dir))
    solo = run_scenario("fig9")
    assert solo.simulated == solo.cells > 0

    plan = compile_fleet_plan("fig9")
    coordinator = FleetCoordinator(cache=ResultCache(fleet_dir))
    queued, precached = coordinator.seed_scenario(plan)
    assert (queued, precached) == (len(plan.jobs_by_key), 0)
    coordinator.start()
    workers, threads = _start_workers(coordinator.url, 2)
    assert coordinator.serve_until_drained(timeout=120, grace=0.5) is True
    for thread in threads:
        thread.join(timeout=10)
    assert coordinator.manifest_file is not None

    # Every file — per-key payloads and the manifest — byte-identical.
    assert _tree_bytes(fleet_dir) == _tree_bytes(solo_dir)

    # The work was actually distributed and clean.
    stats = coordinator.queue.stats
    assert stats.completed == len(plan.jobs_by_key)
    assert stats.requeued == stats.retries == stats.failed == 0
    assert sum(w.stats.completed for w in workers) == stats.completed
    assert sum(w.stats.errors for w in workers) == 0


def test_killed_worker_loses_no_tasks(tmp_path):
    solo_dir = tmp_path / "solo"
    fleet_dir = tmp_path / "fleet"

    configure(cache=True, cache_dir=str(solo_dir))
    run_scenario("fig9")

    plan = compile_fleet_plan("fig9")
    coordinator = FleetCoordinator(
        cache=ResultCache(fleet_dir),
        lease_timeout=0.75,
        backoff_base=0.1,
    )
    coordinator.seed_scenario(plan)
    coordinator.start()

    # A "killed" worker: leases a task, then never heartbeats, never
    # completes, never comes back.
    zombie = request_json(
        f"{coordinator.url}/lease", {"worker": "zombie"}
    )
    assert zombie["state"] == "task"

    _, threads = _start_workers(coordinator.url, 2)
    assert coordinator.serve_until_drained(timeout=120, grace=0.5) is True
    for thread in threads:
        thread.join(timeout=10)

    stats = coordinator.queue.stats
    assert stats.dead_workers == 1
    assert stats.requeued >= 1
    assert stats.failed == 0
    assert stats.completed == len(plan.jobs_by_key)  # nothing lost
    # Recovery is invisible in the results: still byte-identical.
    assert _tree_bytes(fleet_dir) == _tree_bytes(solo_dir)


def test_precached_keys_are_skipped_at_seed_time(tmp_path):
    configure(cache=True, cache_dir=str(tmp_path))
    run_scenario("fig9")  # warm the shared cache

    plan = compile_fleet_plan("fig9")
    coordinator = FleetCoordinator(cache=ResultCache(tmp_path))
    queued, precached = coordinator.seed_scenario(plan)
    assert queued == 0
    assert precached == len(plan.jobs_by_key)
    # With nothing queued the sweep finalizes without any worker.
    coordinator.start()
    assert coordinator.serve_until_drained(timeout=30, grace=0.0) is True
    assert coordinator.manifest_file is not None


def test_remote_executor_matches_serial_outcomes(tmp_path):
    coordinator = FleetCoordinator(cache=ResultCache(tmp_path))
    coordinator.start()
    workers, threads = _start_workers(
        coordinator.url, 2, max_idle_s=30.0
    )
    try:
        # Duplicates exercise the executor's submit-side dedup.
        jobs = [_job(8), _job(16), _job(8)]
        remote = RemoteExecutor(coordinator.url)
        outcomes = remote.run(jobs)
        assert remote.jobs_executed == len(jobs)
        serial = SerialExecutor().run(jobs)
        assert [o.job.cache_key() for o in outcomes] == [
            o.job.cache_key() for o in serial
        ]
        assert [outcome_to_payload(o) for o in outcomes] == [
            outcome_to_payload(o) for o in serial
        ]
        assert all(not o.from_cache for o in outcomes)
    finally:
        coordinator.stop()  # workers are told "drained" and exit
        for thread in threads:
            thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)


def test_remote_executor_requires_a_coordinator_url():
    from repro.exec.service import ExecutionSettings

    with pytest.raises(ConfigurationError, match="coordinator"):
        ExecutionSettings(executor="remote").build_executor()
    settings = ExecutionSettings(
        executor="remote", coordinator="127.0.0.1:9"
    )
    assert isinstance(settings.build_executor(), RemoteExecutor)


def test_http_boundary_rejects_bad_submissions(tmp_path):
    coordinator = FleetCoordinator(cache=ResultCache(tmp_path))
    coordinator.start()
    url = coordinator.url
    try:
        good = task_from_job(_job(8), "h").to_payload()

        # Hash-mismatched task: 400 at the wire, nothing queued.
        other = task_from_job(_job(16), "h").to_payload()
        tampered = dict(good, cache_key=other["cache_key"])
        with pytest.raises(ProtocolError, match="does not match") as exc:
            request_json(f"{url}/submit", {"tasks": [tampered]})
        assert exc.value.code == 400

        # Version-skewed task: rejected even though internally coherent.
        skewed = dict(good, code_version="repro-0.0.1/cache-v0")
        with pytest.raises(ProtocolError, match="code version") as exc:
            request_json(f"{url}/submit", {"tasks": [skewed]})
        assert exc.value.code == 400

        # Result push for a key this coordinator never issued.
        with pytest.raises(ProtocolError, match="never") as exc:
            request_json(
                f"{url}/result", {"key": "f" * 64, "payload": {"schema": 1}}
            )
        assert exc.value.code == 400

        # Unknown outcome key: reported missing at once, not held.
        body = request_json(
            f"{url}/outcomes", {"keys": ["e" * 64], "wait_s": 30.0}
        )
        assert body == {"outcomes": {}, "failed": {}, "missing": ["e" * 64]}

        # Unknown paths: 404 on both verbs.
        with pytest.raises(ProtocolError) as exc:
            request_json(f"{url}/nope")
        assert exc.value.code == 404
        with pytest.raises(ProtocolError) as exc:
            request_json(f"{url}/nope", {"x": 1})
        assert exc.value.code == 404

        assert coordinator.queue.snapshot()["pending"] == 0
    finally:
        coordinator.stop()


@pytest.mark.parametrize("garbage", CORRUPTIONS + ('{"torn": true}',))
def test_coordinator_resimulates_a_corrupted_cache_entry(tmp_path, garbage):
    """An entry the local cache would read as a miss is a miss here too:
    seeding re-queues it, and a remote run re-simulates and rewrites it
    instead of relaying the unusable payload."""
    job = _job(8)
    key = job.cache_key()
    expected = outcome_to_payload(SerialExecutor().run([job])[0])
    path = tmp_path / f"{key}.json"
    path.write_text(garbage)

    plan = FleetPlan(
        name="adhoc", spec_hash="h", job_keys=[key], jobs_by_key={key: job}
    )
    seeded = FleetCoordinator(cache=ResultCache(tmp_path))
    assert seeded.seed_scenario(plan) == (1, 0)
    seeded.stop()

    coordinator = FleetCoordinator(cache=ResultCache(tmp_path))
    coordinator.start()
    _, threads = _start_workers(coordinator.url, 1)
    try:
        outcome = RemoteExecutor(coordinator.url).run([job])[0]
    finally:
        coordinator.stop()
        for thread in threads:
            thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert outcome_to_payload(outcome) == expected
    assert json.loads(path.read_text()) == expected
    assert coordinator.queue.stats.completed == 1


class _BrokenExecutor(Executor):
    """Every execution raises: a simulator bug, as a worker sees it."""

    def _run_batch(self, jobs):
        raise RuntimeError("boom")


def test_outcomes_name_a_dead_lettered_task(tmp_path):
    coordinator = FleetCoordinator(
        cache=ResultCache(tmp_path), max_retries=0
    )
    coordinator.start()
    worker = FleetWorker(
        url=coordinator.url, worker_id="broken", executor=_BrokenExecutor()
    )
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    job = _job(8)
    try:
        with pytest.raises(FleetError) as exc:
            RemoteExecutor(coordinator.url).run([job])
    finally:
        coordinator.stop()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert job.cache_key()[:16] in str(exc.value)
    assert "RuntimeError: boom" in str(exc.value)
    assert coordinator.queue.failed_keys() == {
        job.cache_key(): "RuntimeError: boom"
    }
    assert worker.stats.errors == 1


def test_outcomes_report_an_unknown_key_missing_without_a_repoll(
    tmp_path, monkeypatch
):
    import repro.fleet.protocol as protocol

    coordinator = FleetCoordinator(cache=ResultCache(tmp_path))
    coordinator.start()
    try:
        start = time.monotonic()
        body = request_json(
            f"{coordinator.url}/outcomes",
            {"keys": ["e" * 64], "wait_s": 10.0},
        )
        assert time.monotonic() - start < 2.0
        assert body == {"outcomes": {}, "failed": {}, "missing": ["e" * 64]}

        # A submit the coordinator never sees leaves the executor's key
        # unknown: it must raise on the first answer, not poll again.
        real = protocol.request_json
        calls = []

        def lossy(url, body=None, **kwargs):
            calls.append(url.rsplit("/", 1)[-1])
            if url.endswith("/submit"):
                return {"accepted": 0, "tasks": []}
            return real(url, body, **kwargs)

        monkeypatch.setattr(protocol, "request_json", lossy)
        job = _job(8)
        with pytest.raises(FleetError, match=job.cache_key()[:16]):
            RemoteExecutor(coordinator.url).run([job])
        assert calls == ["submit", "outcomes"]
    finally:
        coordinator.stop()


def test_outcomes_reject_malformed_requests_and_clamp_the_wait(
    tmp_path, monkeypatch
):
    import repro.fleet.coordinator as coordinator_mod

    coordinator = FleetCoordinator(cache=ResultCache(tmp_path))
    coordinator.start()
    url = f"{coordinator.url}/outcomes"
    try:
        for body in (
            {"wait_s": 1.0},
            {"keys": [], "wait_s": 1.0},
            {"keys": "k", "wait_s": 1.0},
            {"keys": [""], "wait_s": 1.0},
            {"keys": [3], "wait_s": 1.0},
            {"keys": ["k"]},
            {"keys": ["k"], "wait_s": "1"},
            {"keys": ["k"], "wait_s": True},
            {"keys": ["k"], "wait_s": None},
        ):
            with pytest.raises(ProtocolError) as exc:
                request_json(url, body)
            assert exc.value.code == 400, body

        # A pending key no worker will lease: the hold runs to the
        # clamped wait, and the still-open key is in none of the lists.
        task = task_from_job(_job(8), "h")
        request_json(
            f"{coordinator.url}/submit", {"tasks": [task.to_payload()]}
        )
        monkeypatch.setattr(coordinator_mod, "OUTCOME_WAIT_S", 0.3)
        start = time.monotonic()
        body = request_json(url, {"keys": [task.cache_key], "wait_s": 1e9})
        assert 0.25 < time.monotonic() - start < 5.0
        assert body == {"outcomes": {}, "failed": {}, "missing": []}
        start = time.monotonic()
        request_json(url, {"keys": [task.cache_key], "wait_s": -5})
        assert time.monotonic() - start < 0.25
    finally:
        coordinator.stop()


def test_outcomes_return_soon_after_the_last_key_completes(tmp_path):
    coordinator = FleetCoordinator(cache=ResultCache(tmp_path))
    coordinator.start()
    try:
        jobs = [_job(8), _job(16)]
        payloads = [
            outcome_to_payload(o) for o in SerialExecutor().run(jobs)
        ]
        keys = [job.cache_key() for job in jobs]
        request_json(
            f"{coordinator.url}/submit",
            {"tasks": [task_from_job(j, "h").to_payload() for j in jobs]},
        )
        leases = [coordinator.handle_lease({"worker": "w"}) for _ in jobs]
        landed = {}

        def land():
            for lease, key, payload in zip(leases, keys, payloads):
                time.sleep(0.3)
                coordinator.handle_result(
                    {"lease": lease["lease"], "key": key, "payload": payload}
                )
            landed["at"] = time.monotonic()

        pusher = threading.Thread(target=land, daemon=True)
        pusher.start()
        body = request_json(
            f"{coordinator.url}/outcomes", {"keys": keys, "wait_s": 5.0}
        )
        answered = time.monotonic()
        pusher.join(timeout=10)
        assert answered - landed["at"] < 1.0
        assert body == {
            "outcomes": dict(zip(keys, payloads)),
            "failed": {},
            "missing": [],
        }
    finally:
        coordinator.stop()


def test_held_lease_returns_a_task_added_during_the_hold(tmp_path):
    # A hold as long as the poll interval: only the add can end it early.
    coordinator = FleetCoordinator(
        cache=ResultCache(tmp_path), poll_interval=5.0
    )
    task = task_from_job(_job(8), "h")
    timer = threading.Timer(0.2, coordinator.queue.add, args=(task,))
    start = time.monotonic()
    timer.start()
    body = coordinator.handle_lease({"worker": "w"})
    assert time.monotonic() - start < 2.5
    coordinator.stop()
    assert body["state"] == "task"
    assert body["task"]["cache_key"] == task.cache_key


def test_held_lease_that_ends_empty_asks_again_at_once(tmp_path):
    coordinator = FleetCoordinator(
        cache=ResultCache(tmp_path), poll_interval=0.2
    )
    start = time.monotonic()
    body = coordinator.handle_lease({"worker": "w"})
    assert time.monotonic() - start >= 0.15
    coordinator.stop()
    assert body == {"state": "wait", "retry_after_s": 0.0}


def test_held_lease_hears_drained_when_the_coordinator_stops(tmp_path):
    # Holds last 2.5 s and stop() lingers 5 s, so only the drain flip
    # waking the held lease lets the worker leave within 2 s.
    coordinator = FleetCoordinator(
        cache=ResultCache(tmp_path), poll_interval=2.5
    )
    coordinator.start()
    _, threads = _start_workers(coordinator.url, 1)
    time.sleep(0.3)  # the worker's first lease is now held
    stopper = threading.Thread(target=coordinator.stop, daemon=True)
    stopper.start()
    threads[0].join(timeout=2.0)
    assert not threads[0].is_alive()
    stopper.join(timeout=10)


def test_held_lease_of_a_vanished_worker_ends_quietly(tmp_path, capsys):
    """A worker killed while its lease is held resets the connection;
    the coordinator drops the answer instead of printing a traceback."""
    coordinator = FleetCoordinator(
        cache=ResultCache(tmp_path), poll_interval=0.3
    )
    coordinator.start()
    try:
        address = urllib.parse.urlsplit(coordinator.url)
        body = json.dumps({"worker": "gone"}).encode("utf-8")
        sock = socket.create_connection((address.hostname, address.port))
        sock.sendall(
            b"POST /lease HTTP/1.1\r\nHost: fleet\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body
        )
        time.sleep(0.1)  # the lease is now held
        # Close with a reset, as the kernel does for a killed process
        # with unread data.
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()
        time.sleep(0.6)  # the hold ends; its answer meets the reset
    finally:
        coordinator.stop()
    assert "Traceback" not in capsys.readouterr().err


def test_reset_between_keep_alive_requests_ends_quietly(tmp_path, capsys):
    """A client that resets its connection while the coordinator waits
    for its next keep-alive request leaves no traceback behind."""
    coordinator = FleetCoordinator(cache=ResultCache(tmp_path))
    coordinator.start()
    try:
        address = urllib.parse.urlsplit(coordinator.url)
        conn = http.client.HTTPConnection(
            address.hostname, address.port, timeout=5
        )
        conn.request("GET", "/status")
        response = conn.getresponse()
        assert response.status == 200
        # The answer is read; the handler now waits for the next request.
        assert json.loads(response.read())
        conn.sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        conn.sock.close()
        time.sleep(0.3)  # the reset reaches the waiting handler
    finally:
        coordinator.stop()
    assert "Traceback" not in capsys.readouterr().err


def test_result_push_retries_transient_connection_drops(
    tmp_path, monkeypatch
):
    """A dropped /result push must not lose a finished simulation."""
    import repro.fleet.worker as worker_mod
    from repro.fleet.protocol import CoordinatorUnreachable

    coordinator = FleetCoordinator(cache=ResultCache(tmp_path))
    coordinator.start()
    try:
        task = task_from_job(_job(8), "h")
        request_json(
            f"{coordinator.url}/submit", {"tasks": [task.to_payload()]}
        )
        worker = FleetWorker(url=coordinator.url, worker_id="flaky")
        real = worker_mod.request_json
        drops = {"n": 0}

        def flaky(url, body=None, **kwargs):
            if url.endswith("/result") and drops["n"] < 2:
                drops["n"] += 1
                raise CoordinatorUnreachable(f"injected drop {drops['n']}")
            return real(url, body, **kwargs)

        monkeypatch.setattr(worker_mod, "request_json", flaky)
        lease = worker._lease()
        assert lease["state"] == "task"
        assert worker.run_one(lease) is True
        assert drops["n"] == 2  # both drops happened, then the retry won
        assert worker.stats.completed == 1
        assert worker.stats.errors == 0
        assert coordinator.queue.stats.completed == 1
        assert coordinator.queue.drained and coordinator.queue.succeeded
    finally:
        coordinator.stop()


def test_unacked_result_push_does_not_count_completed(monkeypatch):
    """stats.completed is an ack count, not a push-attempt count."""
    import repro.fleet.worker as worker_mod

    task = task_from_job(_job(8), "h")

    def fake(url, body=None, **kwargs):
        if url.endswith("/heartbeat"):
            return {"ok": True}
        assert url.endswith("/result")
        return {"ok": False}

    monkeypatch.setattr(worker_mod, "request_json", fake)
    worker = FleetWorker(url="127.0.0.1:9", worker_id="w")
    lease_body = {
        "task": task.to_payload(), "lease": "L1", "heartbeat_s": 30.0,
    }
    assert worker.run_one(lease_body) is False
    assert worker.stats.completed == 0
    assert worker.stats.infeasible == 0


def test_heartbeat_thread_survives_transient_errors(monkeypatch):
    """One dropped heartbeat must not silently let the lease expire;
    only an explicit dead-lease response stops the thread."""
    import repro.fleet.worker as worker_mod
    from repro.fleet.protocol import CoordinatorUnreachable

    script = [
        CoordinatorUnreachable("blip"),
        {"ok": True},
        CoordinatorUnreachable("blip again"),
        {"ok": True},
        {"ok": False},  # lease reaped: now the thread may stop
    ]
    drained = threading.Event()

    def fake(url, body=None, **kwargs):
        assert url.endswith("/heartbeat")
        step = script.pop(0)
        if not script:
            drained.set()
        if isinstance(step, Exception):
            raise step
        return step

    monkeypatch.setattr(worker_mod, "request_json", fake)
    thread = worker_mod._HeartbeatThread("http://127.0.0.1:9", "L1", 0.01)
    thread.start()
    assert drained.wait(10.0)  # survived both transients to the end
    thread.join(timeout=10.0)
    assert not thread.is_alive()


def test_heartbeat_interval_is_a_third_of_the_lease_timeout(tmp_path):
    """No floor: a short lease keeps two heartbeats of slack."""
    coordinator = FleetCoordinator(
        cache=ResultCache(tmp_path), lease_timeout=0.75
    )
    coordinator.queue.add(task_from_job(_job(8), "h"))
    body = coordinator.handle_lease({"worker": "w"})
    assert body["state"] == "task"
    assert body["heartbeat_s"] == 0.25


def test_wait_response_carries_backoff_hint(tmp_path):
    """All-pending-gated: the wait tells workers how long to sleep."""
    coordinator = FleetCoordinator(
        cache=ResultCache(tmp_path), backoff_base=5.0
    )
    coordinator.queue.add(task_from_job(_job(8), "h"))
    body = coordinator.handle_lease({"worker": "w"})
    assert body["state"] == "task"
    coordinator.queue.fail(body["lease"], "RuntimeError: boom")
    wait = coordinator.handle_lease({"worker": "w"})
    assert wait["state"] == "wait"
    assert wait.get("backoff") is True
    # The hint is the (floored) delta to the backoff gate, not the
    # fixed poll interval.
    assert coordinator.poll_interval < wait["retry_after_s"] <= 5.0
    assert wait["retry_after_s"] > 4.0


def test_backoff_waits_do_not_count_as_idle(monkeypatch):
    """A worker waiting out a known backoff gate is not idle."""
    import repro.fleet.worker as worker_mod

    responses = [
        {"state": "wait", "retry_after_s": 0.01, "backoff": True},
        {"state": "wait", "retry_after_s": 0.01, "backoff": True},
        {"state": "wait", "retry_after_s": 0.01},
        {"state": "wait", "retry_after_s": 0.01},
        {"state": "drained"},
    ]

    def fake(url, body=None, **kwargs):
        assert url.endswith("/lease")
        return responses.pop(0)

    monkeypatch.setattr(worker_mod, "request_json", fake)
    worker = FleetWorker(
        url="127.0.0.1:9", worker_id="w", max_idle_s=0.0
    )
    worker.run()
    # The two backoff waits must not have tripped the idle exit; the
    # two plain waits then do (max_idle_s=0), before "drained" is read.
    assert worker.stats.waits == 4
    assert responses == [{"state": "drained"}]


def test_status_endpoint_reports_queue_cache_and_scenario(tmp_path):
    plan = compile_fleet_plan("fig9")
    coordinator = FleetCoordinator(cache=ResultCache(tmp_path))
    coordinator.seed_scenario(plan)
    coordinator.start()
    try:
        status = request_json(f"{coordinator.url}/status")
        assert status["draining"] is False
        assert status["queue"]["pending"] == len(plan.jobs_by_key)
        assert status["queue"]["stats"]["submitted"] == len(plan.jobs_by_key)
        assert status["cache"]["dir"] == str(tmp_path)
        assert status["scenario"]["name"] == "fig9"
        assert status["scenario"]["spec_hash"] == plan.spec_hash
        assert status["scenario"]["cells"] == plan.cells
        assert status["scenario"]["resolved_keys"] == 0
    finally:
        coordinator.stop()


def test_cli_fleet_verbs_round_trip(tmp_path, capsys):
    from repro.cli import main

    cache = str(tmp_path / "cli-cache")
    # Warm cache first, so serve drains instantly with no workers.
    assert main(["scenario", "run", "fig9", "--cache-dir", cache]) == 0
    capsys.readouterr()
    assert main(
        [
            "scenario", "serve", "fig9", "--cache-dir", cache,
            "--port", "0", "--timeout", "30",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "3 already cached" in out
    assert "manifest ->" in out

    # status --json is machine readable and agrees with the run.
    assert main(
        ["scenario", "status", "fig9", "--cache-dir", cache, "--json"]
    ) == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "fig9"
    assert payload["missing_keys"] == []
    assert payload["cached_keys"] == payload["distinct_keys"]
    assert payload["manifest_present"] and payload["manifest_current"]

    # A worker pointed at a dead coordinator errors loudly at the CLI.
    assert main(["scenario", "fleet-status", "127.0.0.1:9"]) == 1
    assert "error:" in capsys.readouterr().err
