"""Tests for the engine's versioned event queue.

A property test drives the queue through random operation sequences
and checks its tombstone/cell bookkeeping after every step.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.events import Event, EventKind, EventQueue


@pytest.fixture(name="queue")
def _queue():
    return EventQueue()


def _event(t, payload=0, epoch=0):
    return Event(t, EventKind.TASK_FINISH, payload, epoch)


def test_pop_orders_by_time(queue):
    queue.push(_event(3.0, "c"))
    queue.push(_event(1.0, "a"))
    queue.push(_event(2.0, "b"))
    assert [queue.pop().payload for _ in range(3)] == ["a", "b", "c"]


def test_ties_broken_by_insertion_order(queue):
    queue.push(_event(1.0, "first"))
    queue.push(_event(1.0, "second"))
    assert queue.pop().payload == "first"
    assert queue.pop().payload == "second"


def test_pop_empty_returns_none(queue):
    assert queue.pop() is None


def test_peek_does_not_remove(queue):
    queue.push(_event(0.5))
    assert queue.peek_time() == pytest.approx(0.5)
    assert len(queue) == 1


def test_peek_empty_returns_none(queue):
    assert queue.peek_time() is None


def test_len_and_bool(queue):
    assert not queue
    queue.push(_event(1.0))
    assert queue and len(queue) == 1


def test_rejects_negative_time(queue):
    with pytest.raises(SimulationError):
        queue.push(_event(-1.0))


def test_rejects_nan_time(queue):
    with pytest.raises(SimulationError):
        queue.push(_event(float("nan")))


def test_rejects_infinite_time(queue):
    with pytest.raises(SimulationError):
        queue.push(_event(float("inf")))


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=50,
    )
)
def test_pop_sequence_is_sorted(times):
    q = EventQueue()
    for t in times:
        q.push(_event(t))
    popped = []
    while q:
        popped.append(q.pop().time)
    assert popped == sorted(times)


# ----------------------------------------------------------------------
# versioned scheduling / lazy invalidation
# ----------------------------------------------------------------------


def test_reschedule_tombstones_previous_copy(queue):
    queue.schedule(2.0, EventKind.TASK_FINISH, 7)
    queue.schedule(1.0, EventKind.TASK_FINISH, 7)  # supersedes the first
    event = queue.pop_live()
    assert (event.time, event.payload) == (1.0, 7)
    assert queue.pop_live() is None  # the 2.0 copy was a tombstone
    assert queue.stale_dropped == 1


def test_cancel_tombstones_outstanding_event(queue):
    queue.schedule(1.0, EventKind.COLLECTIVE_FINISH, "x")
    queue.schedule(2.0, EventKind.TASK_FINISH, 1)
    queue.cancel(EventKind.COLLECTIVE_FINISH, "x")
    event = queue.pop_live()
    assert event.kind is EventKind.TASK_FINISH
    assert queue.pop_live() is None


def test_cancel_without_outstanding_event_is_noop(queue):
    queue.cancel(EventKind.TASK_FINISH, 99)
    queue.schedule(1.0, EventKind.TASK_FINISH, 99)
    assert queue.pop_live().payload == 99


def test_live_count_tracks_tombstones(queue):
    for i in range(5):
        queue.schedule(float(i + 1), EventKind.TASK_FINISH, 0)
    assert len(queue) == 5
    assert queue.live_count == 1  # four superseded copies


def test_different_payloads_do_not_invalidate_each_other(queue):
    queue.schedule(1.0, EventKind.TASK_FINISH, 1)
    queue.schedule(2.0, EventKind.TASK_FINISH, 2)
    queue.schedule(3.0, EventKind.TASK_FINISH, 1)  # only payload 1 moves
    assert [queue.pop_live().payload for _ in range(2)] == [2, 1]
    assert queue.pop_live() is None


def test_compaction_preserves_order_and_results(queue):
    # Heavy rescheduling churn: many payloads, many supersessions, plus
    # same-time ties whose insertion order must survive compaction.
    for round_index in range(20):
        for payload in range(10):
            queue.schedule(
                100.0 - round_index + payload, EventKind.TASK_FINISH, payload
            )
    queue.compact()
    assert queue.live_count == 10
    assert len(queue) == 10  # tombstones physically gone
    popped = []
    while True:
        event = queue.pop_live()
        if event is None:
            break
        popped.append((event.time, event.payload))
    assert popped == sorted(popped)
    assert len(popped) == 10


@given(st.lists(st.tuples(st.integers(0, 4), st.floats(0.0, 100.0)), max_size=60))
def test_pop_live_returns_only_latest_per_payload(schedules):
    q = EventQueue()
    latest = {}
    for payload, time in schedules:
        q.schedule(time, EventKind.TASK_FINISH, payload)
        latest[payload] = time
    got = {}
    while True:
        event = q.pop_live()
        if event is None:
            break
        assert event.payload not in got
        got[event.payload] = event.time
    assert got == latest


# ----------------------------------------------------------------------
# regression: peek_time must never surface a superseded wake-up time
# ----------------------------------------------------------------------


def test_peek_skips_and_drops_stale_heads(queue):
    """Schedule, supersede, peek: the stale head must not be visible."""
    queue.schedule(1.0, EventKind.TASK_FINISH, 42)
    queue.schedule(5.0, EventKind.TASK_FINISH, 42)  # supersedes t=1.0
    # Regression: peek_time used to report the tombstone's 1.0.
    assert queue.peek_time() == 5.0
    # The stale head was dropped on the way, exactly once.
    assert len(queue) == 1
    assert queue.stale_dropped == 1
    assert queue.live_count == 1
    event = queue.pop_live()
    assert (event.time, event.payload) == (5.0, 42)
    assert queue.peek_time() is None


def test_peek_skips_chains_of_stale_heads(queue):
    for t in (1.0, 2.0, 3.0, 9.0):
        queue.schedule(t, EventKind.TASK_FINISH, "k")
    queue.schedule(4.0, EventKind.COLLECTIVE_FINISH, "live")
    assert queue.peek_time() == 4.0  # three stale heads dropped
    assert queue.stale_dropped == 3
    queue.check_invariants()


# ----------------------------------------------------------------------
# regression: retired keys must not leak version-table entries
# ----------------------------------------------------------------------


def test_versions_pruned_after_pop(queue):
    for i in range(100):
        queue.schedule(float(i) + 0.5, EventKind.TASK_FINISH, i)
    while queue.pop_live() is not None:
        pass
    # Regression: _versions used to retain one entry per key forever.
    assert not queue._versions
    assert not queue._key_copies
    assert not queue._live_keys
    queue.check_invariants()


def test_versions_survive_while_stale_copies_remain(queue):
    queue.schedule(5.0, EventKind.TASK_FINISH, 1)
    queue.schedule(1.0, EventKind.TASK_FINISH, 1)
    event = queue.pop_live()  # pops t=1.0; the t=5.0 tombstone remains
    assert event.time == 1.0
    # The version entry must survive: the stale copy still in storage
    # would otherwise read as live.
    assert (EventKind.TASK_FINISH, 1) in queue._versions
    assert queue.pop_live() is None
    assert not queue._versions  # last copy gone -> pruned
    queue.check_invariants()


def test_schedule_cancel_storm_keeps_state_bounded(queue):
    """A sim-lifetime worth of unique keys must not accumulate state."""
    for wave in range(30):
        for key in range(40):
            payload = (wave, key)
            queue.schedule(1.0 + wave, EventKind.TASK_FINISH, payload)
            if key % 3 == 0:
                queue.schedule(2.0 + wave, EventKind.TASK_FINISH, payload)
            if key % 5 == 0:
                queue.cancel(EventKind.TASK_FINISH, payload)
        while queue.pop_live() is not None:
            pass
        queue.check_invariants()
    assert not queue._versions
    assert not queue._key_copies
    assert queue.live_count == 0


# ----------------------------------------------------------------------
# regression: explicit compact on a small queue must be exact
# ----------------------------------------------------------------------


def test_cancel_then_compact_small_queue_is_exact(queue):
    """Sub-threshold queues compact too when asked explicitly."""
    queue.schedule(1.0, EventKind.TASK_FINISH, "a")
    queue.schedule(2.0, EventKind.TASK_FINISH, "b")
    queue.cancel(EventKind.TASK_FINISH, "a")
    assert queue.live_count == 1
    queue.compact()
    # Regression: compact used to no-op under _COMPACT_MIN_SIZE,
    # leaving the tombstone physically queued (len != live_count).
    assert len(queue) == 1
    assert queue.live_count == 1
    queue.check_invariants()
    assert queue.pop_live().payload == "b"
    assert queue.pop_live() is None


def test_rejected_schedule_leaves_bookkeeping_untouched(queue):
    """An invalid time must not corrupt the exact version accounting."""
    queue.schedule(1.0, EventKind.TASK_FINISH, 7)
    for bad in (float("inf"), float("nan"), -1.0):
        with pytest.raises(SimulationError):
            queue.schedule(bad, EventKind.TASK_FINISH, 7)
        with pytest.raises(SimulationError):
            queue.schedule(bad, EventKind.TASK_FINISH, "fresh-key")
        queue.check_invariants()
    # The original live event is unaffected by the failed attempts.
    assert queue.live_count == 1
    event = queue.pop_live()
    assert (event.time, event.payload, event.epoch) == (1.0, 7, 1)
    assert queue.pop_live() is None
    queue.check_invariants()


def test_raw_and_versioned_keys_do_not_mix(queue):
    queue.schedule(1.0, EventKind.TASK_FINISH, 7)
    with pytest.raises(SimulationError):
        queue.push(_event(2.0, 7))
    queue2 = EventQueue()
    queue2.push(_event(1.0, 7))
    with pytest.raises(SimulationError):
        queue2.schedule(2.0, EventKind.TASK_FINISH, 7)
    # Once the raw copy is popped, the key may become version-managed.
    queue2.pop()
    queue2.schedule(2.0, EventKind.TASK_FINISH, 7)
    assert queue2.pop_live().epoch == 1


# ----------------------------------------------------------------------
# property: random interleavings keep the bookkeeping exact
# ----------------------------------------------------------------------

_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("schedule"),
            st.integers(0, 6),
            st.floats(0.0, 50.0, allow_nan=False),
        ),
        st.tuples(st.just("cancel"), st.integers(0, 6), st.just(0.0)),
        st.tuples(st.just("pop_live"), st.just(0), st.just(0.0)),
        st.tuples(st.just("pop"), st.just(0), st.just(0.0)),
        st.tuples(st.just("peek"), st.just(0), st.just(0.0)),
        st.tuples(st.just("compact"), st.just(0), st.just(0.0)),
    ),
    max_size=80,
)


@settings(max_examples=60, deadline=None)
@given(_OPS)
def test_random_interleavings_keep_invariants(ops):
    q = EventQueue()
    for op, key, time in ops:
        if op == "schedule":
            q.schedule(time, EventKind.TASK_FINISH, key)
        elif op == "cancel":
            q.cancel(EventKind.TASK_FINISH, key)
        elif op == "pop_live":
            q.pop_live()
        elif op == "pop":
            q.pop()
        elif op == "peek":
            head = q.peek_time()
            if head is not None:
                # The peeked time is the next live pop.
                assert head == min(
                    item[0] for item in q._heap if not q._is_stale(item[2])
                )
        elif op == "compact":
            q.compact()
        q.check_invariants()
    # Drain: the rest pops in time order and leaves no bookkeeping.
    drained = []
    while True:
        event = q.pop_live()
        if event is None:
            break
        drained.append(event.time)
    assert drained == sorted(drained)
    assert not q._versions
    assert not q._key_copies


# ----------------------------------------------------------------------
# the tick lane
# ----------------------------------------------------------------------


def _drain_live(q):
    popped = []
    while True:
        event = q.pop_live()
        if event is None:
            return popped
        popped.append((event.time, event.kind, event.payload))


@pytest.mark.parametrize("tick_first", [True, False])
def test_same_time_tick_and_finish_pop_in_scheduling_order(queue, tick_first):
    t = 0.1 + 0.2  # an inexact float, shared bit for bit
    if tick_first:
        queue.schedule_tick(t, 3)
        queue.schedule(t, EventKind.TASK_FINISH, 9)
        expected = [EventKind.GOVERNOR_TICK, EventKind.TASK_FINISH]
    else:
        queue.schedule(t, EventKind.TASK_FINISH, 9)
        queue.schedule_tick(t, 3)
        expected = [EventKind.TASK_FINISH, EventKind.GOVERNOR_TICK]
    assert [kind for _, kind, _ in _drain_live(queue)] == expected


def test_stale_head_before_a_tick_is_dropped_and_counted(queue):
    queue.schedule(1.0, EventKind.TASK_FINISH, 7)
    queue.schedule(3.0, EventKind.TASK_FINISH, 7)  # t=1.0 is now stale
    queue.schedule_tick(2.0, 0)
    event = queue.pop_live()
    assert (event.time, event.kind, event.payload) == (
        2.0, EventKind.GOVERNOR_TICK, 0,
    )
    assert queue.stale_dropped == 1
    assert queue.pop_live().time == 3.0
    assert queue.pop_live() is None
    queue.check_invariants()


def test_size_views_count_lane_entries(queue):
    assert not queue and len(queue) == 0
    queue.schedule_tick(0.5, 1)
    assert queue and len(queue) == 1 and queue.live_count == 1
    assert queue.peek_time() == 0.5
    queue.schedule(2.0, EventKind.TASK_FINISH, 4)
    queue.schedule(0.25, EventKind.TASK_FINISH, 4)  # one tombstone
    assert len(queue) == 3 and queue.live_count == 2
    assert queue.peek_time() == 0.25
    queue.check_invariants()
    assert queue.pop_live().payload == 4
    assert queue.peek_time() == 0.5  # the lane head, ahead of a stale 2.0
    assert queue.stale_dropped == 0
    queue.check_invariants()


def test_compact_rebuilds_the_heap_in_place(queue):
    heap = queue._heap
    for t in range(5):
        queue.schedule(float(t + 1), EventKind.TASK_FINISH, 0)
    queue.schedule_tick(0.5, 2)
    queue.compact()
    assert queue._heap is heap
    assert len(heap) == 1 and len(queue) == 2
    assert [kind for _, kind, _ in _drain_live(queue)] == [
        EventKind.GOVERNOR_TICK, EventKind.TASK_FINISH,
    ]


def test_schedule_tick_rejects_bad_times_untouched(queue):
    queue.schedule_tick(1.0, 0)
    queue.schedule(2.0, EventKind.TASK_FINISH, 5)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(SimulationError):
            queue.schedule_tick(bad, 0)
        assert len(queue) == 2 and queue.live_count == 2
        queue.check_invariants()
    # No insertion counter was drawn: a same-time tie still breaks in
    # scheduling order.
    queue.schedule_tick(2.0, 1)
    assert [kind for _, kind, _ in _drain_live(queue)] == [
        EventKind.GOVERNOR_TICK, EventKind.TASK_FINISH,
        EventKind.GOVERNOR_TICK,
    ]


def test_raw_pop_merges_the_lane(queue):
    queue.push(_event(2.0, "raw"))
    queue.schedule_tick(1.0, 6)
    first = queue.pop()
    assert (first.time, first.kind, first.payload) == (
        1.0, EventKind.GOVERNOR_TICK, 6,
    )
    assert queue.pop().payload == "raw"
    assert queue.pop() is None


_LANE_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("schedule"),
            st.integers(0, 3),
            st.sampled_from([0.0, 0.5, 1.0, 2.5]),
        ),
        st.tuples(
            st.just("tick"),
            st.integers(0, 3),
            st.sampled_from([0.0, 0.5, 1.0, 2.5]),
        ),
        st.tuples(st.just("pop_live"), st.just(0), st.just(0.0)),
    ),
    max_size=120,
)


def _check_against_one_heap(ops):
    """Run ``ops`` on a queue with a lane and on one heap holding ticks
    as raw events (the engine never supersedes a tick); every pop, the
    tombstone drops and the sizes must agree."""
    q = EventQueue()
    ref = EventQueue()
    for op, key, time in ops:
        if op == "schedule":
            q.schedule(time, EventKind.TASK_FINISH, key)
            ref.schedule(time, EventKind.TASK_FINISH, key)
        elif op == "tick":
            q.schedule_tick(time, key)
            ref.push(Event(time, EventKind.GOVERNOR_TICK, key))
        else:
            got, want = q.pop_live(), ref.pop_live()
            assert (got is None) == (want is None)
            if got is not None:
                assert got[:3] == want[:3]
            assert q.stale_dropped == ref.stale_dropped
        q.check_invariants()
        assert len(q) == len(ref) and q.live_count == ref.live_count
    assert _drain_live(q) == _drain_live(ref)
    assert q.stale_dropped == ref.stale_dropped


@settings(max_examples=80, deadline=None)
@given(_LANE_OPS)
def test_lane_pops_as_one_heap_would(ops):
    """The merged order is one versioned heap's, ties included."""
    _check_against_one_heap(ops)


def test_compaction_counts_the_lane_and_runs_after_lane_pops():
    # 65 heap entries, 39 of them tombstones, and 30 later ticks: after
    # popping the heap's head the heap alone would compact, heap plus
    # lane must not.
    ops = [("tick", g % 4, 5.0) for g in range(30)]
    ops += [("schedule", key, 6.0) for key in range(3) for _ in range(14)]
    ops += [("schedule", key, 0.25) for key in range(3, 26)]
    ops.append(("pop_live", 0, 0.0))
    _check_against_one_heap(ops)
    # A lane pop is what tips this one over: 49 tombstones in 69.
    ops = [("tick", 0, 0.5) for _ in range(20)]
    ops += [("schedule", 0, 5.0) for _ in range(50)]
    ops.append(("pop_live", 0, 0.0))
    _check_against_one_heap(ops)
