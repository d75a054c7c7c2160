"""The paper's metrics (Section IV-D, Equations 1-5).

Eq. 1  ComputeSlowdown = (C_ov - C_seq) / C_seq
Eq. 2  OverlappedComputation = overlapped compute time / total compute time
Eq. 3  SlowdownCompute = C_ov - C_seq                     (absolute)
Eq. 4  E2E_ideal = E2E_ov - SlowdownCompute
Eq. 5  E2E_seq = E2E_ideal + OverlappedCommunication

where C_* are per-GPU compute-kernel time sums. The harness measures
E2E_seq directly (``e2e_sequential_measured_s``), so Eq. 5 is a
consistency check rather than a derived field, and the simulator can
execute the ideal scenario directly (contention off) to validate Eq. 4's
derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import SimulationError
from repro.profiler.summary import summarize
from repro.sim.result import SimulationResult
from repro.sim.task import TaskCategory


@dataclass(frozen=True)
class OverlapMetrics:
    """All paper metrics for one (workload, system) configuration."""

    compute_overlapping_s: float
    compute_sequential_s: float
    comm_total_s: float
    overlapped_comm_s: float
    overlap_ratio: float
    e2e_overlapping_s: float
    e2e_sequential_measured_s: float
    e2e_ideal_simulated_s: Optional[float] = None

    @property
    def compute_slowdown(self) -> float:
        """Eq. 1: relative compute-kernel slowdown under overlap."""
        if self.compute_sequential_s <= 0:
            return 0.0
        return (
            self.compute_overlapping_s - self.compute_sequential_s
        ) / self.compute_sequential_s

    @property
    def slowdown_compute_s(self) -> float:
        """Eq. 3: absolute compute-time inflation."""
        return self.compute_overlapping_s - self.compute_sequential_s

    @property
    def e2e_ideal_s(self) -> float:
        """Eq. 4: derived ideal iteration latency."""
        return self.e2e_overlapping_s - self.slowdown_compute_s

    @property
    def sequential_vs_overlapped(self) -> float:
        """How much slower sequential execution is than overlapped."""
        if self.e2e_overlapping_s <= 0:
            return 0.0
        return self.e2e_sequential_measured_s / self.e2e_overlapping_s - 1.0

    @property
    def overlapped_vs_ideal(self) -> float:
        """How much slower overlapped execution is than derived ideal."""
        ideal = self.e2e_ideal_s
        if ideal <= 0:
            return 0.0
        return self.e2e_overlapping_s / ideal - 1.0


def compute_metrics(
    overlapped: SimulationResult,
    sequential: SimulationResult,
    ideal: Optional[SimulationResult] = None,
) -> OverlapMetrics:
    """Derive :class:`OverlapMetrics` from simulation results.

    ``overlapped`` and ``sequential`` must execute the same workload;
    a grossly mismatched kernel count raises, catching accidental
    cross-configuration comparisons.
    """
    n_ov = len(overlapped.records_for(category=TaskCategory.COMPUTE))
    n_seq = len(sequential.records_for(category=TaskCategory.COMPUTE))
    if n_ov != n_seq:
        raise SimulationError(
            f"mismatched workloads: {n_ov} vs {n_seq} compute kernels"
        )
    profile = summarize(overlapped)
    return OverlapMetrics(
        compute_overlapping_s=overlapped.total_time(TaskCategory.COMPUTE),
        compute_sequential_s=sequential.total_time(TaskCategory.COMPUTE),
        comm_total_s=overlapped.total_time(TaskCategory.COMM),
        overlapped_comm_s=profile.mean_overlapped_comm_time(),
        overlap_ratio=profile.mean_overlapped_compute_fraction(),
        e2e_overlapping_s=overlapped.end_time_s,
        e2e_sequential_measured_s=sequential.end_time_s,
        e2e_ideal_simulated_s=ideal.end_time_s if ideal is not None else None,
    )
