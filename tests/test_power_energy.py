"""Tests for energy accounting."""

import pytest

from repro.power.energy import node_energy_j
from repro.sim.result import PowerSegment, SimulationResult


def _segment(gpu, start, end, power):
    return PowerSegment(
        gpu=gpu,
        start_s=start,
        end_s=end,
        power_w=power,
        compute_active=True,
        comm_active=False,
        clock_frac=1.0,
    )


@pytest.fixture()
def result():
    return SimulationResult(
        end_time_s=2.0,
        records=[],
        power_segments={
            0: [_segment(0, 0.0, 1.0, 100.0), _segment(0, 1.0, 2.0, 300.0)],
            1: [_segment(1, 0.0, 2.0, 50.0)],
        },
        num_gpus=2,
    )


def test_node_energy_sums_gpus(result):
    assert node_energy_j(result) == pytest.approx(500.0)
