"""Tests for the interval algebra behind Eq. 2."""

import pytest
from hypothesis import given, strategies as st

from repro.profiler.timeline import (
    intersect_total,
    interval_intersection,
    interval_union,
    total_length,
)


def test_union_merges_overlapping():
    assert interval_union([(0, 2), (1, 3)]) == [(0, 3)]


def test_union_keeps_disjoint():
    assert interval_union([(0, 1), (2, 3)]) == [(0, 1), (2, 3)]


def test_union_merges_touching():
    assert interval_union([(0, 1), (1, 2)]) == [(0, 2)]


def test_union_unsorted_input():
    assert interval_union([(5, 6), (0, 1), (0.5, 2)]) == [(0, 2), (5, 6)]


def test_union_drops_empty_intervals():
    assert interval_union([(1, 1), (2, 3)]) == [(2, 3)]


def test_intersection_basic():
    a = [(0, 4)]
    b = [(1, 2), (3, 5)]
    assert interval_intersection(a, b) == [(1, 2), (3, 4)]


def test_intersection_disjoint_is_empty():
    assert interval_intersection([(0, 1)], [(2, 3)]) == []


def test_total_length():
    assert total_length([(0, 1), (2, 4)]) == pytest.approx(3.0)


def test_intersect_total():
    assert intersect_total([(0, 4)], [(1, 3)]) == pytest.approx(2.0)


finite = st.floats(
    min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
intervals = st.lists(
    st.tuples(finite, finite).map(lambda t: (min(t), max(t))),
    max_size=12,
)


@given(intervals)
def test_union_is_sorted_and_disjoint(raw):
    merged = interval_union(raw)
    for (a1, b1), (a2, b2) in zip(merged, merged[1:]):
        assert b1 < a2
        assert a1 < b1 and a2 < b2


@given(intervals)
def test_union_idempotent(raw):
    once = interval_union(raw)
    assert interval_union(once) == once


@given(intervals)
def test_union_preserves_total_length_upper_bound(raw):
    # The union can never be longer than the sum of the pieces.
    merged = interval_union(raw)
    assert total_length(merged) <= sum(b - a for a, b in raw) + 1e-9


@given(intervals, intervals)
def test_intersection_commutes(a, b):
    left = intersect_total(a, b)
    right = intersect_total(b, a)
    assert left == pytest.approx(right)


@given(intervals, intervals)
def test_intersection_bounded_by_each_side(a, b):
    inter = intersect_total(a, b)
    assert inter <= total_length(interval_union(a)) + 1e-9
    assert inter <= total_length(interval_union(b)) + 1e-9
