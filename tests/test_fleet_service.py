"""End-to-end fleet runs over localhost HTTP.

The acceptance criteria of the fleet subsystem, gated here:

* a coordinator + two workers draining a scenario produce a manifest
  and per-key cache files *byte-for-byte identical* to a serial
  ``run_scenario`` of the same spec;
* killing a worker mid-run (simulated by a leased-but-never-completed
  zombie) loses no tasks — the lease expires, the task requeues, and
  the sweep still completes identically;
* the RemoteExecutor behind the standard Executor surface returns the
  same outcomes as a SerialExecutor;
* malformed / hash-mismatched / version-skewed submissions are
  rejected at the HTTP boundary with 400s.
"""

import threading

import pytest

from repro.core.experiment import ExperimentConfig
from repro.core.modes import ExecutionMode
from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache, outcome_to_payload
from repro.exec.executors import RemoteExecutor, SerialExecutor
from repro.exec.job import SimJob
from repro.exec.service import configure, reset_default_service
from repro.fleet import (
    FleetCoordinator,
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


def test_batched_fleet_run_is_bit_identical_to_serial_run(tmp_path):
    """A batch-leasing worker lands byte-identical cache + manifest.

    The batched wire shape (``n`` tasks per ``/lease``, one ``/result``
    list per batch) is pure transport: the payload bytes per key and
    the finalized manifest must match a serial ``run_scenario`` of the
    same spec exactly.
    """
    solo_dir = tmp_path / "solo"
    fleet_dir = tmp_path / "fleet"

    configure(cache=True, cache_dir=str(solo_dir))
    solo = run_scenario("fig9")
    assert solo.simulated == solo.cells > 0

    plan = compile_fleet_plan("fig9")
    coordinator = FleetCoordinator(cache=ResultCache(fleet_dir))
    coordinator.seed_scenario(plan)
    coordinator.start()
    workers, threads = _start_workers(coordinator.url, 2, batch=3)
    assert coordinator.serve_until_drained(timeout=120, grace=0.5) is True
    for thread in threads:
        thread.join(timeout=10)
    assert coordinator.manifest_file is not None

    assert _tree_bytes(fleet_dir) == _tree_bytes(solo_dir)

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
        remote = RemoteExecutor(coordinator.url, poll_interval=0.05)
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

        # Unknown outcome key: 404, polling semantics.
        with pytest.raises(ProtocolError) as exc:
            request_json(f"{url}/outcome/{'e' * 64}")
        assert exc.value.code == 404

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
