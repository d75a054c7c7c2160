"""TaskQueue semantics under an injected clock: lease ordering,
heartbeats, reap-and-requeue with exponential backoff, the bounded
retry budget and dead-letter state, late completions from limping
workers (results are deterministic, so late work is honored), and the
long-poll holds that wake on queue changes and end on close."""

import threading
import time

import pytest

from repro.core.experiment import ExperimentConfig
from repro.core.modes import ExecutionMode
from repro.errors import FleetError
from repro.exec.job import SimJob
from repro.fleet.queue import TaskQueue
from repro.fleet.task import task_from_job

MODES = (ExecutionMode.OVERLAPPED, ExecutionMode.SEQUENTIAL)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def _task(batch: int):
    job = SimJob(
        config=ExperimentConfig(
            gpu="A100", model="gpt3-xl", batch_size=batch, runs=1
        ),
        modes=MODES,
    )
    return task_from_job(job, "spec")


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def queue(clock):
    return TaskQueue(
        lease_timeout=10.0, max_retries=2, backoff_base=1.0, clock=clock
    )


def test_constructor_validates_bounds():
    with pytest.raises(FleetError, match="lease_timeout"):
        TaskQueue(lease_timeout=0.0)
    with pytest.raises(FleetError, match="max_retries"):
        TaskQueue(max_retries=-1)


def test_add_deduplicates_by_cache_key(queue):
    assert queue.add(_task(8)) is True
    assert queue.add(_task(8)) is False  # same key
    assert queue.add(_task(16)) is True
    assert queue.stats.submitted == 2


def test_lease_order_is_submission_order(queue):
    first, second = _task(8), _task(16)
    queue.add(first)
    queue.add(second)
    _, t1 = queue.lease_with_hint("w")[0]
    _, t2 = queue.lease_with_hint("w")[0]
    assert t1.cache_key == first.cache_key
    assert t2.cache_key == second.cache_key
    assert queue.lease_with_hint("w")[0] is None  # nothing left to lease


def test_complete_drains_the_queue(queue):
    queue.add(_task(8))
    lease, task = queue.lease_with_hint("w")[0]
    assert not queue.drained
    assert queue.complete(task.cache_key, False, lease.lease_id) is True
    assert queue.drained and queue.succeeded
    assert queue.done_keys() == {task.cache_key: False}
    assert queue.stats.completed == 1


def test_duplicate_completion_is_counted_not_crashed(queue):
    queue.add(_task(8))
    lease, task = queue.lease_with_hint("w")[0]
    assert queue.complete(task.cache_key, False, lease.lease_id) is True
    assert queue.complete(task.cache_key, False, None) is False
    assert queue.stats.duplicates == 1
    assert queue.stats.completed == 1


def test_expired_lease_reaps_and_requeues(queue, clock):
    queue.add(_task(8))
    lease, task = queue.lease_with_hint("limping")[0]
    clock.advance(10.1)  # past the lease deadline
    reaped = queue.reap()
    assert reaped == [task.cache_key]
    assert queue.stats.requeued == 1
    assert queue.stats.dead_workers == 1
    # Backoff gates the re-lease: not leasable until not_before passes.
    assert queue.lease_with_hint("w2")[0] is None
    clock.advance(1.1)  # backoff_base * 2^0 = 1.0
    _, retried = queue.lease_with_hint("w2")[0]
    assert retried.cache_key == task.cache_key
    assert retried.attempt == 1
    assert queue.stats.retries == 1


def test_heartbeat_extends_the_deadline(queue, clock):
    queue.add(_task(8))
    lease, task = queue.lease_with_hint("w")[0]
    clock.advance(8.0)
    assert queue.heartbeat(lease.lease_id) is True
    clock.advance(8.0)  # 16s total: dead without the heartbeat
    assert queue.reap() == []
    assert queue.heartbeat("L999") is False  # unknown lease
    clock.advance(10.1)
    assert queue.reap() == [task.cache_key]
    assert queue.heartbeat(lease.lease_id) is False  # expired lease


def test_backoff_grows_exponentially_then_dead_letters(queue, clock):
    queue.add(_task(8))
    key = None
    # max_retries=2 allows attempts 0, 1, 2; the third expiry kills it.
    for attempt, backoff in ((0, 1.0), (1, 2.0)):
        leased = queue.lease_with_hint("w")[0]
        assert leased is not None
        _, task = leased
        key = task.cache_key
        assert task.attempt == attempt
        clock.advance(10.1)
        assert queue.reap() == [key]
        assert queue.lease_with_hint("w")[0] is None  # backoff gate closed
        clock.advance(backoff)  # 1.0 then 2.0 (base * 2^(attempts-1))
    _, task = queue.lease_with_hint("w")[0]
    assert task.attempt == 2
    clock.advance(10.1)
    queue.reap()
    assert queue.failed_keys() and key in queue.failed_keys()
    assert "expired" in queue.failed_keys()[key]
    assert queue.stats.failed == 1
    assert queue.drained and not queue.succeeded
    # A dead-lettered key cannot be re-added (it is still known).
    assert queue.add(_task(8)) is False


def test_reported_failure_requeues_with_backoff(queue, clock):
    queue.add(_task(8))
    lease, task = queue.lease_with_hint("w")[0]
    queue.fail(lease.lease_id, "RuntimeError: boom")
    assert queue.stats.requeued == 1
    clock.advance(1.1)
    _, retried = queue.lease_with_hint("w")[0]
    assert retried.attempt == 1


def test_late_completion_from_a_limping_worker_is_honored(queue, clock):
    queue.add(_task(8))
    lease, task = queue.lease_with_hint("limping")[0]
    clock.advance(10.1)
    queue.reap()  # lease expired; task back in pending
    # The reaped worker finishes anyway and pushes its (deterministic)
    # result: the task is done and never re-leases.
    assert queue.complete(task.cache_key, False, lease.lease_id) is True
    clock.advance(5.0)
    assert queue.lease_with_hint("w2")[0] is None
    assert queue.drained and queue.succeeded


def test_late_completion_drops_the_replacement_lease(queue, clock):
    queue.add(_task(8))
    lease1, task = queue.lease_with_hint("limping")[0]
    clock.advance(10.1)
    queue.reap()
    clock.advance(1.1)
    lease2, _ = queue.lease_with_hint("replacement")[0]
    # The limping worker lands first; the replacement's push duplicates.
    assert queue.complete(task.cache_key, False, lease1.lease_id) is True
    assert queue.complete(task.cache_key, False, lease2.lease_id) is False
    assert queue.stats.completed == 1
    assert queue.stats.duplicates == 1


def test_each_dead_worker_is_counted_once(queue, clock):
    queue.add(_task(8))
    queue.add(_task(16))
    queue.lease_with_hint("flaky")
    queue.lease_with_hint("flaky")
    clock.advance(10.1)
    assert len(queue.reap()) == 2
    assert queue.stats.dead_workers == 1


def test_knows_covers_every_state(queue, clock):
    task = _task(8)
    assert not queue.knows(task.cache_key)
    queue.add(task)
    assert queue.knows(task.cache_key)  # pending
    lease, _ = queue.lease_with_hint("w")[0]
    assert queue.knows(task.cache_key)  # leased
    queue.complete(task.cache_key, False, lease.lease_id)
    assert queue.knows(task.cache_key)  # done


def test_lease_with_hint_reports_earliest_backoff_gate(queue, clock):
    queue.add(_task(8))
    queue.lease_with_hint("limping")
    clock.advance(10.1)
    queue.reap()  # requeued with not_before = now + backoff_base
    leased, hint = queue.lease_with_hint("w2")
    assert leased is None
    assert hint == pytest.approx(1.0)
    clock.advance(0.4)
    leased, hint = queue.lease_with_hint("w2")
    assert leased is None
    assert hint == pytest.approx(0.6)
    clock.advance(0.7)  # past the gate: leasable again, no hint
    leased, hint = queue.lease_with_hint("w2")
    assert leased is not None
    assert hint is None


def test_lease_with_hint_is_none_when_only_in_flight(queue):
    queue.add(_task(8))
    leased, hint = queue.lease_with_hint("w")
    assert leased is not None and hint is None
    # Nothing pending (the task is leased elsewhere): no gate to wait
    # out, so no hint — callers fall back to their poll interval.
    leased, hint = queue.lease_with_hint("w2")
    assert leased is None and hint is None


def test_lease_with_hint_takes_the_minimum_gate(queue, clock):
    queue.add(_task(8))
    queue.add(_task(16))
    lease1, _ = queue.lease_with_hint("w")[0]
    lease2, _ = queue.lease_with_hint("w")[0]
    queue.fail(lease1.lease_id, "boom")  # gate at t = 1.0
    clock.advance(0.5)
    queue.fail(lease2.lease_id, "boom")  # gate at t = 1.5
    leased, hint = queue.lease_with_hint("w")
    assert leased is None
    assert hint == pytest.approx(0.5)  # earliest gate wins


def test_snapshot_reports_counts_workers_and_stats(queue):
    queue.add(_task(8))
    queue.add(_task(16))
    queue.lease_with_hint("w1")
    snap = queue.snapshot()
    assert snap["pending"] == 1
    assert snap["leased"] == 1
    assert snap["done"] == 0
    assert snap["failed"] == 0
    assert snap["workers"] == ["w1"]
    assert snap["stats"]["submitted"] == 2
    assert snap["stats"]["leased"] == 1


def test_lease_with_hint_surfaces_backoff_hint(queue, clock):
    queue.add(_task(8))
    lease, task = queue.lease_with_hint("w")[0]
    queue.fail(lease.lease_id, "boom")
    leased, hint = queue.lease_with_hint("w")
    assert leased is None
    assert hint is not None and hint > 0


def test_await_settled_reports_open_and_dead_lettered_keys(clock):
    queue = TaskQueue(max_retries=0, clock=clock)
    doomed, waiting = _task(8), _task(16)
    queue.add(doomed)
    queue.add(waiting)
    lease, _ = queue.lease_with_hint("w")[0]
    queue.fail(lease.lease_id, "RuntimeError: boom")  # no retries left
    keys = [waiting.cache_key, doomed.cache_key, "e" * 64]
    still_open, failed = queue.await_settled(keys, 0.0)
    assert still_open == [waiting.cache_key]
    assert failed == {doomed.cache_key: "RuntimeError: boom"}


def test_await_settled_wakes_on_completion(queue):
    task = _task(8)
    queue.add(task)
    lease, _ = queue.lease_with_hint("w")[0]
    timer = threading.Timer(
        0.1, queue.complete, args=(task.cache_key, False, lease.lease_id)
    )
    start = time.monotonic()
    timer.start()
    assert queue.await_settled([task.cache_key], 5.0) == ([], {})
    assert time.monotonic() - start < 2.5


def test_close_ends_holds_at_once(queue):
    task = _task(8)
    queue.close()
    assert queue.closed
    start = time.monotonic()
    assert queue.lease_with_hint("w", hold=5.0) == (None, None)
    queue.add(task)  # submission still works on a closed queue
    assert queue.await_settled([task.cache_key], 5.0) == (
        [task.cache_key], {}
    )
    assert time.monotonic() - start < 2.5
