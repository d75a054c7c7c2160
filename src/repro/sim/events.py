"""The event queue of the discrete-event engine.

:class:`EventQueue` is a binary heap with *lazy invalidation*.
Rescheduling a finish event does not remove the superseded copy;
every ``(kind, payload)`` pair carries a version counter,
:meth:`~EventQueue.schedule` bumps it and tags the new event, and
:meth:`~EventQueue.pop_live` silently drops tombstoned copies (events
whose version has since been superseded) on the way out. This turns
the engine's rescheduling churn from O(heap) removals into O(1) bumps,
at the cost of dead entries in the heap — which
:meth:`~EventQueue.compact` reclaims once they outnumber the live
ones.

Per-key bookkeeping lives in one *cell* ``[version, copies, live]``
per ``(kind, payload)`` key — one dict lookup per schedule and per
pop where three parallel structures (version table, live-key set,
copy counts) used to cost three. The cells stay exact: the tombstone
count (``live_count`` is always ``len(queue) - tombstones``) and the
cell table, which is pruned as soon as the last copy of a key leaves
storage (versions only need to stay monotonic while a stale copy
could still be popped). ``_versions`` / ``_live_keys`` /
``_key_copies`` remain available as derived views.

Governor ticks ride a *tick lane* of their own
(:meth:`~EventQueue.schedule_tick`): a second heap of ``(time,
counter, gpu)`` entries, unversioned because the engine never
supersedes a tick. Its counter comes from the main heap's sequence and
:meth:`~EventQueue.pop_live` returns whichever head is earlier by
``(time, counter)``, so the merged order — every same-time tie
included — is the order one heap holding both would give. The
incremental engine pops the lane inline (see
:meth:`repro.sim.engine.IncrementalSimulator._run_loop`); that is why
both lists are identity-stable (:meth:`~EventQueue.compact` rebuilds
in place) and why the engine repeats the compaction check after a
lane pop.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import SimulationError

#: Auto-compaction threshold: ``pop_live`` rebuilds the heap once it
#: holds at least this many events and more than half are tombstones.
#: An *explicit* :meth:`EventQueue.compact` call always rebuilds.
_COMPACT_MIN_SIZE = 64

#: Hot-path alias; ``0.0 <= t < _INF`` is the fast-path validity test
#: (NaN fails both comparisons and falls through to the slow path).
_INF = float("inf")


class EventKind(enum.Enum):
    """Engine event types."""

    TASK_FINISH = "task_finish"
    COLLECTIVE_FINISH = "collective_finish"
    GOVERNOR_TICK = "governor_tick"
    PERTURB_BEGIN = "perturb_begin"
    PERTURB_END = "perturb_end"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    # Members are singletons; identity hashing matches the default
    # name hash semantically but stays in C. Every queue operation
    # hashes a (kind, payload) key, so this is hot.
    __hash__ = object.__hash__


_GOVERNOR_TICK = EventKind.GOVERNOR_TICK


class Event(NamedTuple):
    """One scheduled occurrence.

    ``epoch`` supports lazy invalidation: finish events carry the
    version of their ``(kind, payload)`` key at scheduling time and are
    dropped on pop if the version has since advanced (i.e. the finish
    was rescheduled or cancelled).

    A named tuple rather than a (frozen) dataclass: the engine creates
    one per schedule call, and ``tuple.__new__`` construction is about
    half the cost of a frozen dataclass's ``object.__setattr__`` loop
    on that hot path.
    """

    time: float
    kind: EventKind
    payload: Any
    epoch: int = 0


#: Cell slot indices (cells are plain lists for mutation speed).
_VERSION = 0
_COPIES = 1
_LIVE = 2


class EventQueue:
    """A stable min-queue of events keyed by (time, insertion order).

    Two usage levels:

    * :meth:`push` / :meth:`pop` — the raw FIFO-stable queue; events
      are returned exactly as pushed. For unversioned keys only:
      pushing a raw event onto a key that :meth:`schedule` manages
      would corrupt the tombstone accounting, so it is rejected (and
      so is the reverse — versioning a key that has raw copies
      outstanding).
    * :meth:`schedule` / :meth:`cancel` / :meth:`pop_live` — versioned
      events with lazy invalidation (the engine uses this for finish
      events); superseded copies are tombstones that ``pop_live``
      drops and ``compact`` reclaims.

    :meth:`schedule_tick` feeds the tick lane, which :meth:`pop`,
    :meth:`pop_live`, :meth:`peek_time`, ``len()`` and
    :attr:`live_count` merge with the main heap.
    """

    def __init__(self) -> None:
        #: ``(time, insertion counter, event)`` entries; the counter
        #: breaks same-time ties in FIFO order.
        self._heap: List[Tuple[float, int, Event]] = []
        #: The tick lane: ``(time, insertion counter, gpu)`` governor
        #: ticks, drawing counters from the same sequence.
        self._ticks: List[Tuple[float, int, Any]] = []
        self._counter = itertools.count()
        #: Per-key bookkeeping cell ``[version, copies, live]``:
        #: ``version`` is None for raw push() keys and the current
        #: version for schedule()-managed keys; ``copies`` counts
        #: events (live, stale or raw) currently in storage; ``live``
        #: is True while the current version still has a copy in
        #: storage. A cell is pruned when its last copy leaves storage.
        self._cells: Dict[Tuple[EventKind, Any], list] = {}
        #: Exact number of tombstoned events currently in storage.
        self._tombstones = 0
        #: Total tombstones dropped over the queue's lifetime.
        self.stale_dropped = 0

    # ------------------------------------------------------------------
    # derived views of the cell table (kept for tests and debugging —
    # these were the three parallel structures the cells replaced)
    # ------------------------------------------------------------------

    @property
    def _versions(self) -> Dict[Tuple[EventKind, Any], int]:
        """Current version per schedule()-managed key (derived view)."""
        return {
            key: cell[_VERSION]
            for key, cell in self._cells.items()
            if cell[_VERSION] is not None
        }

    @property
    def _live_keys(self) -> set:
        """Keys whose current version is still in storage (derived)."""
        return {key for key, cell in self._cells.items() if cell[_LIVE]}

    @property
    def _key_copies(self) -> Dict[Tuple[EventKind, Any], int]:
        """Copies (live, stale or raw) per key in storage (derived)."""
        return {
            key: cell[_COPIES]
            for key, cell in self._cells.items()
            if cell[_COPIES]
        }

    # ------------------------------------------------------------------
    # raw interface
    # ------------------------------------------------------------------

    def push(self, event: Event) -> None:
        """Schedule a raw event; times must be finite and non-negative.

        Rejects keys already managed by :meth:`schedule` — a raw copy
        there would silently read as a tombstone and skew the exact
        tombstone count that drives compaction.
        """
        cell = self._cells.get((event.kind, event.payload))
        if cell is not None and cell[_VERSION] is not None:
            raise SimulationError(
                f"event key ({event.kind}, {event.payload!r}) is "
                f"version-managed; use schedule() instead of push()"
            )
        self._push(event)

    @staticmethod
    def _validate_time(time: float, kind: EventKind) -> None:
        if not (time >= 0.0) or time != time:
            raise SimulationError(
                f"event {kind} has invalid time {time!r}"
            )
        if time == float("inf"):
            raise SimulationError(f"event {kind} scheduled at infinity")

    def _push(self, event: Event) -> None:
        self._validate_time(event.time, event.kind)
        self._push_validated(event)

    def _push_validated(self, event: Event) -> None:
        """Storage insert for a time :meth:`_validate_time` already saw.

        :meth:`schedule` validates before touching any bookkeeping and
        then skips the recheck — one validation per event, not two, on
        the engine's hottest call.
        """
        key = (event.kind, event.payload)
        cell = self._cells.get(key)
        if cell is None:
            self._cells[key] = [None, 1, False]
        else:
            cell[_COPIES] += 1
        heapq.heappush(self._heap, (event.time, next(self._counter), event))

    def _note_removed(self, event: Event) -> bool:
        """Book-keep one copy leaving storage; True if it was stale.

        Decrements the key's copy count and, once no copy remains and
        the key is not live, prunes its cell — versions only need to
        stay monotonic while a stale copy could still surface.
        """
        key = (event.kind, event.payload)
        cells = self._cells
        cell = cells[key]
        version = cell[_VERSION]
        if version is not None and event.epoch != version:
            self._tombstones -= 1
            stale = True
        else:
            cell[_LIVE] = False
            stale = False
        cell[_COPIES] -= 1
        if cell[_COPIES] <= 0 and not cell[_LIVE]:
            del cells[key]
        return stale

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest event, or None if empty.

        Tombstoned events are returned too — callers that schedule via
        :meth:`schedule` should use :meth:`pop_live` instead.
        """
        heap = self._heap
        ticks = self._ticks
        if ticks and (not heap or ticks[0] < heap[0]):
            return self._tick_event(heapq.heappop(ticks))
        if not heap:
            return None
        event = heapq.heappop(heap)[2]
        self._note_removed(event)
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the earliest *live* event without removing it.

        Stale heads (tombstoned copies that happen to sort first) are
        dropped on the way, so the returned wake-up time is never one
        a supersession already invalidated. Like :meth:`pop_live`, it
        drops only the stale heads that sort before the lane's head.
        """
        heap = self._heap
        ticks = self._ticks
        while heap:
            if ticks and ticks[0] < heap[0]:
                break
            time, _, event = heap[0]
            if not self._is_stale(event):
                return time
            heapq.heappop(heap)
            self._note_removed(event)
            self.stale_dropped += 1
        return ticks[0][0] if ticks else None

    # ------------------------------------------------------------------
    # versioned interface (lazy invalidation)
    # ------------------------------------------------------------------

    def schedule(self, time: float, kind: EventKind, payload: Any) -> Event:
        """(Re)schedule the finish event for ``(kind, payload)``.

        Any previously scheduled copy becomes a tombstone; there is at
        most one live event per key at any moment.
        """
        # Validate before touching any bookkeeping: a rejected time
        # must leave the cell table and tombstone count untouched.
        if not (0.0 <= time < _INF):
            self._validate_time(time, kind)
        key = (kind, payload)
        cells = self._cells
        cell = cells.get(key)
        if cell is None:
            version = 1
            cells[key] = [1, 1, True]
        else:
            version = cell[_VERSION]
            if version is None:
                raise SimulationError(
                    f"event key ({kind}, {payload!r}) has raw push() "
                    f"copies outstanding; it cannot become "
                    f"version-managed"
                )
            version += 1
            cell[_VERSION] = version
            if cell[_LIVE]:
                self._tombstones += 1
            else:
                cell[_LIVE] = True
            cell[_COPIES] += 1
        # tuple.__new__ directly: NamedTuple's generated __new__ is an
        # extra python frame per event on the engine's hottest call.
        event = tuple.__new__(Event, (time, kind, payload, version))
        heapq.heappush(self._heap, (time, next(self._counter), event))
        return event

    def cancel(self, kind: EventKind, payload: Any) -> None:
        """Tombstone the outstanding event for ``(kind, payload)``.

        The engine itself never needs this — it invalidates by
        supersession (:meth:`schedule`) and state is only torn down by
        the key's own live event, at which point nothing is
        outstanding. It completes the lazy-invalidation contract for
        callers that retire a key *without* popping it (e.g. aborting
        a task from outside the event loop).
        """
        cell = self._cells.get((kind, payload))
        if cell is not None and cell[_LIVE]:
            cell[_VERSION] = (cell[_VERSION] or 0) + 1
            cell[_LIVE] = False
            self._tombstones += 1

    def schedule_tick(self, time: float, gpu: Any) -> None:
        """Schedule a governor tick for ``gpu`` on the tick lane.

        Ticks skip the versioned cells: the engine keeps at most one
        tick per GPU outstanding and never supersedes it, so a tick is
        one push with nothing to tombstone (and nothing
        :meth:`cancel` can reach). A rejected time leaves the queue
        untouched, insertion counter included.
        """
        if not (0.0 <= time < _INF):
            self._validate_time(time, _GOVERNOR_TICK)
        heapq.heappush(self._ticks, (time, next(self._counter), gpu))

    @staticmethod
    def _tick_event(item: Tuple[float, int, Any]) -> Event:
        """The :class:`Event` a popped lane entry stands for."""
        return tuple.__new__(Event, (item[0], _GOVERNOR_TICK, item[2], 0))

    def _is_stale(self, event: Event) -> bool:
        cell = self._cells.get((event.kind, event.payload))
        return (
            cell is not None
            and cell[_VERSION] is not None
            and event.epoch != cell[_VERSION]
        )

    def pop_live(self) -> Optional[Event]:
        """Earliest non-tombstoned event, or None when none remain.

        After every pop, from either heap, the queue compacts once it
        holds at least ``_COMPACT_MIN_SIZE`` entries (lane included)
        and tombstones are more than half of them.
        """
        heap = self._heap
        ticks = self._ticks
        while True:
            if ticks and (not heap or ticks[0] < heap[0]):
                event = self._tick_event(heapq.heappop(ticks))
            elif heap:
                event = heapq.heappop(heap)[2]
                if self._note_removed(event):
                    self.stale_dropped += 1
                    continue
            else:
                return None
            size = len(heap) + len(ticks)
            if size >= _COMPACT_MIN_SIZE and self._tombstones > size // 2:
                self.compact()
            return event

    def compact(self) -> None:
        """Drop every tombstone from storage in one rebuild.

        The (time, counter) tuples are retained, so the relative order
        of the surviving events — including same-time ties — is exactly
        what it was before compaction. Unlike the automatic compaction
        ``pop_live`` triggers (which is threshold-gated), an explicit
        call always rebuilds, so ``len(queue)`` equals ``live_count``
        afterwards no matter how small the queue is. The heap list is
        rebuilt in place: the engine's loop holds a reference to it.
        The tick lane holds no tombstones and is left alone.
        """
        heap = self._heap
        kept: List[Tuple[float, int, Event]] = []
        for item in heap:
            event = item[2]
            if self._is_stale(event):
                self._note_removed(event)
                self.stale_dropped += 1
            else:
                kept.append(item)
        heap[:] = kept
        heapq.heapify(heap)

    @property
    def live_count(self) -> int:
        """Number of non-tombstoned events currently queued."""
        return len(self._heap) + len(self._ticks) - self._tombstones

    def check_invariants(self) -> None:
        """Assert the bookkeeping matches storage exactly (test hook).

        O(n); verifies the tombstone count, the per-key cells (via the
        derived views), that no cell survives with no copies left in
        storage, and the live count over both heaps.
        """
        items = list(self._heap)
        stale = sum(1 for item in items if self._is_stale(item[2]))
        if self._tombstones != stale:
            raise AssertionError(
                f"tombstone count {self._tombstones} != {stale} stale "
                f"events in storage"
            )
        versions = self._versions
        live = {
            (item[2].kind, item[2].payload)
            for item in items
            if (item[2].kind, item[2].payload) in versions
            and not self._is_stale(item[2])
        }
        if live != self._live_keys:
            raise AssertionError(
                f"live keys {self._live_keys!r} != storage live {live!r}"
            )
        copies: Dict[Tuple[EventKind, Any], int] = {}
        for item in items:
            key = (item[2].kind, item[2].payload)
            copies[key] = copies.get(key, 0) + 1
        if copies != self._key_copies:
            raise AssertionError(
                f"copy counts {self._key_copies!r} != storage {copies!r}"
            )
        orphaned = set(versions) - set(copies)
        if orphaned:
            raise AssertionError(
                f"version entries without storage copies: {orphaned!r}"
            )
        leaked = [
            key
            for key, cell in self._cells.items()
            if cell[_COPIES] <= 0 and not cell[_LIVE]
        ]
        if leaked:
            raise AssertionError(
                f"cells with no copies and no live event: {leaked!r}"
            )
        if self.live_count != len(items) + len(self._ticks) - stale:
            raise AssertionError("live_count disagrees with storage")

    def __len__(self) -> int:
        return len(self._heap) + len(self._ticks)

    def __bool__(self) -> bool:
        return bool(self._heap) or bool(self._ticks)
