"""Unit constants."""

import pytest

from repro.units import GB, GIB, MS, US


def test_decimal_and_binary_sizes_differ():
    assert GB == 1_000_000_000
    assert GIB == 2**30
    assert GIB > GB


def test_time_conversions():
    assert MS == pytest.approx(1e-3)
    assert US == pytest.approx(1e-6)
