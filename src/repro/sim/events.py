"""The event queue of the discrete-event engine.

:class:`EventQueue` is a binary heap with *lazy invalidation*: a
rescheduled finish event leaves its superseded copy in the heap, and
pops drop such tombstones on the way out. That turns the engine's
rescheduling churn from O(heap) removals into O(1) dict writes, at the
cost of dead entries in the heap, which :meth:`~EventQueue.compact`
reclaims once they outnumber the live ones.

The layout below is the contract. The incremental engine pops the heap
and the tick lane inline (see
:meth:`repro.sim.engine.IncrementalSimulator._run_loop`); it is the
only other reader, and both lists and ``_live`` are identity-stable
(:meth:`~EventQueue.compact` rebuilds the heap in place).

* ``_heap`` holds ``(time, counter, kind, payload)`` entries. Counters
  come from one insertion sequence and are unique, so the tuple order
  is time first, then scheduling order, and a comparison never reaches
  ``kind`` or ``payload``.
* ``_live`` maps each scheduled ``(kind, payload)`` key to the counter
  of its newest entry. **An entry is live iff ``_live.get((kind,
  payload)) == counter``.** :meth:`~EventQueue.schedule` overwrites the
  key (its older entry, if live, becomes one more tombstone), and the
  key's live pop deletes it. A counter is never reused, so a stale
  entry can never read as live again and no per-key state outlives the
  key's live entry.
* ``_tombstones`` is the exact number of stale entries in ``_heap``.
* ``_ticks`` is the *tick lane*: ``(time, counter, gpu)`` governor
  ticks, drawing counters from the same sequence. The engine never
  supersedes a tick, so the lane has no liveness to track. A pop takes
  whichever head is earlier by ``(time, counter)``, so the merged order,
  same-time ties included, is the order one heap holding both would
  give.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import SimulationError

#: Auto-compaction threshold: a pop rebuilds the heap once the queue
#: holds at least this many entries (lane included) and more than half
#: are tombstones. An *explicit* :meth:`EventQueue.compact` call always
#: rebuilds.
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
    """One popped occurrence; ``counter`` is its insertion counter."""

    time: float
    kind: EventKind
    payload: Any
    counter: int


class EventQueue:
    """A stable min-queue of events keyed by (time, insertion order).

    :meth:`schedule` keeps at most one live event per ``(kind,
    payload)`` key, :meth:`schedule_tick` feeds the tick lane, and
    :meth:`pop_live` returns the earliest live event of either, dropping
    tombstones. A key is retired only by supersession or by its own
    live pop. ``len()`` counts every stored entry, tombstones and the
    lane included.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, EventKind, Any]] = []
        self._ticks: List[Tuple[float, int, Any]] = []
        self._live: Dict[Tuple[EventKind, Any], int] = {}
        self._counter = itertools.count()
        #: Exact number of stale entries in ``_heap``.
        self._tombstones = 0
        #: Total tombstones dropped over the queue's lifetime.
        self.stale_dropped = 0

    @staticmethod
    def _validate_time(time: float, kind: EventKind) -> None:
        if not (time >= 0.0) or time != time:
            raise SimulationError(
                f"event {kind} has invalid time {time!r}"
            )
        if time == _INF:
            raise SimulationError(f"event {kind} scheduled at infinity")

    def schedule(self, time: float, kind: EventKind, payload: Any) -> None:
        """(Re)schedule the event for ``(kind, payload)``.

        Any previously scheduled copy becomes a tombstone. A rejected
        time raises before any state changes, insertion counter
        included.
        """
        if not (0.0 <= time < _INF):
            self._validate_time(time, kind)
        key = (kind, payload)
        live = self._live
        if key in live:
            self._tombstones += 1
        counter = next(self._counter)
        live[key] = counter
        heapq.heappush(self._heap, (time, counter, kind, payload))

    def schedule_tick(self, time: float, gpu: Any) -> None:
        """Schedule a governor tick for ``gpu`` on the tick lane.

        A rejected time leaves the queue untouched, insertion counter
        included.
        """
        if not (0.0 <= time < _INF):
            self._validate_time(time, _GOVERNOR_TICK)
        heapq.heappush(self._ticks, (time, next(self._counter), gpu))

    def pop_live(self) -> Optional[Event]:
        """Earliest live event, or None when none remain.

        After every pop, from either heap, the queue compacts once it
        holds at least ``_COMPACT_MIN_SIZE`` entries (lane included)
        and tombstones are more than half of them.
        """
        heap = self._heap
        ticks = self._ticks
        live = self._live
        while True:
            if ticks and (not heap or ticks[0] < heap[0]):
                time, counter, gpu = heapq.heappop(ticks)
                event = Event(time, _GOVERNOR_TICK, gpu, counter)
            elif heap:
                time, counter, kind, payload = heapq.heappop(heap)
                key = (kind, payload)
                if live.get(key) != counter:
                    self._tombstones -= 1
                    self.stale_dropped += 1
                    continue
                del live[key]
                event = Event(time, kind, payload, counter)
            else:
                return None
            size = len(heap) + len(ticks)
            if size >= _COMPACT_MIN_SIZE and self._tombstones > size // 2:
                self.compact()
            return event

    def compact(self) -> None:
        """Drop every tombstone from the heap in one rebuild.

        The (time, counter) prefixes are kept, so the surviving events
        pop in exactly the order they would have. Unlike the automatic
        compaction a pop triggers, an explicit call always rebuilds, so
        afterwards ``len(queue)`` counts live events only. The heap list
        is rebuilt in place; the lane holds no tombstones.
        """
        heap = self._heap
        live = self._live
        kept = [e for e in heap if live.get((e[2], e[3])) == e[1]]
        self.stale_dropped += len(heap) - len(kept)
        self._tombstones = 0
        heap[:] = kept
        heapq.heapify(heap)

    def check_invariants(self) -> None:
        """Assert the bookkeeping matches storage exactly (test hook).

        O(n): every ``_live`` key has exactly one live heap entry, the
        tombstone count equals the stale entries, and no counter
        appears twice across the heap and the lane.
        """
        live = self._live
        live_entries = {
            (e[2], e[3]): e[1]
            for e in self._heap
            if live.get((e[2], e[3])) == e[1]
        }
        if live_entries != live:
            raise AssertionError(
                f"live keys {live!r} != live heap entries {live_entries!r}"
            )
        stale = len(self._heap) - len(live_entries)
        if self._tombstones != stale:
            raise AssertionError(
                f"tombstone count {self._tombstones} != {stale} stale "
                f"entries in the heap"
            )
        counters = [e[1] for e in self._heap] + [e[1] for e in self._ticks]
        if len(set(counters)) != len(counters):
            raise AssertionError("an insertion counter appears twice")

    def __len__(self) -> int:
        return len(self._heap) + len(self._ticks)

    def __bool__(self) -> bool:
        return bool(self._heap) or bool(self._ticks)
