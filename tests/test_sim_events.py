"""Tests for the engine's event queue.

Property tests drive the queue through random operation sequences,
check its liveness bookkeeping after every step and compare it with a
naive model of the documented layout.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.events import EventKind, EventQueue

_FINISH = EventKind.TASK_FINISH
_TICK = EventKind.GOVERNOR_TICK


@pytest.fixture(name="queue")
def _queue():
    return EventQueue()


def _live_count(q):
    """Live events queued, lane included (exact whenever
    ``check_invariants`` holds)."""
    return len(q._live) + len(q._ticks)


def test_pop_orders_by_time(queue):
    queue.schedule(3.0, _FINISH, "c")
    queue.schedule(1.0, _FINISH, "a")
    queue.schedule(2.0, _FINISH, "b")
    assert [queue.pop_live().payload for _ in range(3)] == ["a", "b", "c"]


def test_ties_broken_by_insertion_order(queue):
    queue.schedule(1.0, _FINISH, "first")
    queue.schedule(1.0, _FINISH, "second")
    assert queue.pop_live().payload == "first"
    assert queue.pop_live().payload == "second"


def test_pop_empty_returns_none(queue):
    assert queue.pop_live() is None


def test_len_and_bool(queue):
    assert not queue
    queue.schedule(1.0, _FINISH, 0)
    assert queue and len(queue) == 1


def test_rejects_negative_time(queue):
    with pytest.raises(SimulationError):
        queue.schedule(-1.0, _FINISH, 0)


def test_rejects_nan_time(queue):
    with pytest.raises(SimulationError):
        queue.schedule(float("nan"), _FINISH, 0)


def test_rejects_infinite_time(queue):
    with pytest.raises(SimulationError):
        queue.schedule(float("inf"), _FINISH, 0)


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=50,
    )
)
def test_pop_sequence_is_sorted(times):
    q = EventQueue()
    for payload, t in enumerate(times):
        q.schedule(t, _FINISH, payload)
    popped = []
    while q:
        popped.append(q.pop_live().time)
    assert popped == sorted(times)


# ----------------------------------------------------------------------
# rescheduling / lazy invalidation
# ----------------------------------------------------------------------


def test_reschedule_tombstones_previous_copy(queue):
    queue.schedule(2.0, EventKind.TASK_FINISH, 7)
    queue.schedule(1.0, EventKind.TASK_FINISH, 7)  # supersedes the first
    event = queue.pop_live()
    assert (event.time, event.payload) == (1.0, 7)
    assert queue.pop_live() is None  # the 2.0 copy was a tombstone
    assert queue.stale_dropped == 1


def test_live_count_tracks_tombstones(queue):
    for i in range(5):
        queue.schedule(float(i + 1), EventKind.TASK_FINISH, 0)
    assert len(queue) == 5
    assert _live_count(queue) == 1  # four superseded copies
    queue.check_invariants()


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
    queue.check_invariants()
    assert _live_count(queue) == 10
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
# regression: retired keys must not leak liveness entries
# ----------------------------------------------------------------------


def test_versions_pruned_after_pop(queue):
    for i in range(100):
        queue.schedule(float(i) + 0.5, EventKind.TASK_FINISH, i)
    while queue.pop_live() is not None:
        pass
    # Regression: the queue used to retain one entry per key forever.
    assert not queue._live
    queue.check_invariants()


def test_versions_survive_while_stale_copies_remain(queue):
    queue.schedule(5.0, EventKind.TASK_FINISH, 1)
    queue.schedule(1.0, EventKind.TASK_FINISH, 1)
    event = queue.pop_live()  # pops t=1.0; the t=5.0 tombstone remains
    assert event.time == 1.0
    # The key is retired with its live pop, and the stale copy left in
    # the heap still reads as stale: its counter matches nothing.
    assert (EventKind.TASK_FINISH, 1) not in queue._live
    assert len(queue) == 1 and _live_count(queue) == 0
    queue.check_invariants()
    assert queue.pop_live() is None
    assert queue.stale_dropped == 1
    assert not queue._live
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
                queue.schedule(0.5 + wave, EventKind.TASK_FINISH, payload)
        while queue.pop_live() is not None:
            pass
        queue.check_invariants()
    assert not queue._live
    assert _live_count(queue) == 0


# ----------------------------------------------------------------------
# regression: explicit compact on a small queue must be exact
# ----------------------------------------------------------------------


def test_cancel_then_compact_small_queue_is_exact(queue):
    """Sub-threshold queues compact too when asked explicitly."""
    queue.schedule(1.0, EventKind.TASK_FINISH, "a")
    queue.schedule(2.0, EventKind.TASK_FINISH, "b")
    queue.schedule(3.0, EventKind.TASK_FINISH, "a")  # supersedes t=1.0
    assert len(queue) == 3 and _live_count(queue) == 2
    queue.compact()
    # Regression: compact used to no-op under _COMPACT_MIN_SIZE,
    # leaving the tombstone physically queued (len != live count).
    assert len(queue) == 2
    assert _live_count(queue) == 2
    queue.check_invariants()
    assert queue.pop_live().payload == "b"
    assert queue.pop_live().payload == "a"
    assert queue.pop_live() is None


def test_rejected_schedule_leaves_bookkeeping_untouched(queue):
    """An invalid time must not corrupt the exact liveness accounting."""
    queue.schedule(1.0, EventKind.TASK_FINISH, 7)
    for bad in (float("inf"), float("nan"), -1.0):
        with pytest.raises(SimulationError):
            queue.schedule(bad, EventKind.TASK_FINISH, 7)
        with pytest.raises(SimulationError):
            queue.schedule(bad, EventKind.TASK_FINISH, "fresh-key")
        queue.check_invariants()
    # The original live event is unaffected by the failed attempts,
    # which drew no insertion counter.
    assert _live_count(queue) == 1
    event = queue.pop_live()
    assert (event.time, event.payload, event.counter) == (1.0, 7, 0)
    assert queue.pop_live() is None
    queue.check_invariants()
    queue.schedule(2.0, EventKind.TASK_FINISH, 7)
    assert queue.pop_live().counter == 1


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
        st.tuples(st.just("pop_live"), st.just(0), st.just(0.0)),
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
        elif op == "pop_live":
            q.pop_live()
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
    assert not q._live


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
    assert queue and len(queue) == 1 and _live_count(queue) == 1
    queue.schedule(2.0, EventKind.TASK_FINISH, 4)
    queue.schedule(0.25, EventKind.TASK_FINISH, 4)  # one tombstone
    assert len(queue) == 3 and _live_count(queue) == 2
    queue.check_invariants()
    assert queue.pop_live().payload == 4
    assert len(queue) == 2 and _live_count(queue) == 1
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
        assert len(queue) == 2 and _live_count(queue) == 2
        queue.check_invariants()
    # No insertion counter was drawn: a same-time tie still breaks in
    # scheduling order.
    queue.schedule_tick(2.0, 1)
    assert [kind for _, kind, _ in _drain_live(queue)] == [
        EventKind.GOVERNOR_TICK, EventKind.TASK_FINISH,
        EventKind.GOVERNOR_TICK,
    ]


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


def _one_heap_view(popped):
    """Ticks of the one-heap queue carry ``(gpu, serial)`` payloads."""
    return [
        (t, kind, payload[0] if kind is _TICK else payload)
        for t, kind, payload in popped
    ]


def _check_against_one_heap(ops):
    """Run ``ops`` on a queue with a lane and on one heap holding each
    tick under a key of its own (the engine never supersedes a tick);
    every pop, the tombstone drops and the sizes must agree."""
    q = EventQueue()
    ref = EventQueue()
    for serial, (op, key, time) in enumerate(ops):
        if op == "schedule":
            q.schedule(time, EventKind.TASK_FINISH, key)
            ref.schedule(time, EventKind.TASK_FINISH, key)
        elif op == "tick":
            q.schedule_tick(time, key)
            ref.schedule(time, _TICK, (key, serial))
        else:
            got, want = q.pop_live(), ref.pop_live()
            assert (got is None) == (want is None)
            if got is not None:
                assert [got[:3]] == _one_heap_view([want[:3]])
            assert q.stale_dropped == ref.stale_dropped
        q.check_invariants()
        assert len(q) == len(ref) and _live_count(q) == _live_count(ref)
    assert _drain_live(q) == _one_heap_view(_drain_live(ref))
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


# ----------------------------------------------------------------------
# property: the queue behaves as the naive model of its layout
# ----------------------------------------------------------------------


class _NaiveQueue:
    """One list of ``(time, counter, key)`` entries, scanned in full.

    The newest counter scheduled for a key is live until it pops or
    is superseded; a tick is an entry under a key of its own. Pops and
    the compaction rule follow the documented contract.
    """

    def __init__(self):
        self.entries = []
        self.newest = {}
        self.counter = 0
        self.stale_dropped = 0

    def _live(self, entry):
        _, counter, key = entry
        return key[0] is _TICK or self.newest.get(key) == counter

    def schedule(self, time, key):
        self.entries.append((time, self.counter, key))
        self.newest[key] = self.counter
        self.counter += 1

    def tick(self, time, gpu):
        self.entries.append((time, self.counter, (_TICK, gpu, self.counter)))
        self.counter += 1

    @property
    def live_count(self):
        return sum(1 for entry in self.entries if self._live(entry))

    def pop(self):
        while self.entries:
            entry = min(self.entries)
            self.entries.remove(entry)
            if not self._live(entry):
                self.stale_dropped += 1
                continue
            time, _, key = entry
            if key[0] is not _TICK:
                del self.newest[key]
            size = len(self.entries)
            if size >= 64 and size - self.live_count > size // 2:
                self.compact()
            return time, key[0], key[1]
        return None

    def compact(self):
        kept = [entry for entry in self.entries if self._live(entry)]
        self.stale_dropped += len(self.entries) - len(kept)
        self.entries = kept


_MODEL_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5, 40.0])

_MODEL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, 5), _MODEL_TIMES),
        # Forty reschedules in a row: enough tombstones to reach the
        # auto-compaction threshold within a short sequence.
        st.tuples(st.just("burst"), st.integers(0, 5), _MODEL_TIMES),
        st.tuples(st.just("tick"), st.integers(0, 3), _MODEL_TIMES),
        st.tuples(st.just("pop"), st.just(0), st.just(0.0)),
        st.tuples(st.just("compact"), st.just(0), st.just(0.0)),
    ),
    max_size=200,
)


@settings(max_examples=120, deadline=None)
@given(_MODEL_OPS)
def test_queue_matches_the_naive_model(ops):
    q = EventQueue()
    model = _NaiveQueue()
    for op, key, time in ops:
        kind = EventKind.COLLECTIVE_FINISH if key % 2 else _FINISH
        if op in ("schedule", "burst"):
            for _ in range(40 if op == "burst" else 1):
                q.schedule(time, kind, key)
                model.schedule(time, (kind, key))
        elif op == "tick":
            q.schedule_tick(time, key)
            model.tick(time, key)
        elif op == "pop":
            event = q.pop_live()
            want = model.pop()
            assert (None if event is None else event[:3]) == want
        else:
            q.compact()
            model.compact()
        assert q.stale_dropped == model.stale_dropped
        assert _live_count(q) == model.live_count
        assert len(q) == len(model.entries)
        q.check_invariants()
    while True:
        event = q.pop_live()
        want = model.pop()
        assert (None if event is None else event[:3]) == want
        if want is None:
            break
    assert q.stale_dropped == model.stale_dropped
    assert not q._live and not q
