"""Energy accounting over simulation results."""

from __future__ import annotations

from repro.sim.result import SimulationResult


def node_energy_j(result: SimulationResult) -> float:
    """Total node energy over the simulated iteration (joules)."""
    return sum(
        seg.energy_j
        for segments in result.power_segments.values()
        for seg in segments
    )
