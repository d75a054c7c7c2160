"""Interval algebra over kernel timelines.

All functions take/return lists of ``(start, end)`` tuples. Inputs need
not be sorted or disjoint; outputs are sorted and disjoint.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.errors import SimulationError

Interval = Tuple[float, float]


def _validated(intervals: Iterable[Interval]) -> List[Interval]:
    out = []
    for start, end in intervals:
        if end < start:
            raise SimulationError(f"invalid interval ({start}, {end})")
        if end > start:
            out.append((start, end))
    return sorted(out)


def interval_union(intervals: Iterable[Interval]) -> List[Interval]:
    """Merge intervals into a disjoint sorted cover."""
    merged: List[Interval] = []
    for start, end in _validated(intervals):
        if merged and start <= merged[-1][1]:
            prev_start, prev_end = merged[-1]
            merged[-1] = (prev_start, max(prev_end, end))
        else:
            merged.append((start, end))
    return merged


def interval_intersection(
    a: Iterable[Interval], b: Iterable[Interval]
) -> List[Interval]:
    """Pairwise intersection of two interval sets (unioned first)."""
    ua, ub = interval_union(a), interval_union(b)
    out: List[Interval] = []
    i = j = 0
    while i < len(ua) and j < len(ub):
        start = max(ua[i][0], ub[j][0])
        end = min(ua[i][1], ub[j][1])
        if start < end:
            out.append((start, end))
        if ua[i][1] <= ub[j][1]:
            i += 1
        else:
            j += 1
    return out


def total_length(intervals: Iterable[Interval]) -> float:
    """Summed length of the union of ``intervals``."""
    return sum(end - start for start, end in interval_union(intervals))


def intersect_total(a: Iterable[Interval], b: Iterable[Interval]) -> float:
    """Total time where both interval sets are active."""
    return sum(end - start for start, end in interval_intersection(a, b))
