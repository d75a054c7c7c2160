"""The matmul-vs-all-reduce microbenchmark of Fig. 8.

An N x N x N matrix multiplication runs in a loop while a 1 GB
all-reduce executes concurrently on the communication stream. The
benchmark reports GEMM slowdown versus the isolated run, plus average
and peak power in both scenarios — the cleanest view of the contention
mechanism, with no training-schedule structure in the way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.collectives.primitives import CollectiveKind
from repro.errors import ConfigurationError
from repro.hw.datapath import ComputePath, FP16_TENSOR
from repro.hw.system import NodeSpec
from repro.parallel.plan import ExecutionPlan, PlanBuilder
from repro.power.sampling import PowerSampler
from repro.sim.config import SimConfig
from repro.sim.engine import simulate
from repro.sim.task import TaskCategory
from repro.units import GB, MS
from repro.workloads.kernels import gemm_kernel

#: Payload of the concurrent collective (the paper uses 1 GB).
DEFAULT_ALLREDUCE_BYTES = 1.0 * GB


@dataclass(frozen=True)
class MicrobenchResult:
    """Measurements for one matrix size N."""

    n: int
    gemm_time_overlap_s: float
    gemm_time_isolated_s: float
    avg_power_overlap_w: float
    peak_power_overlap_w: float
    avg_power_isolated_w: float
    peak_power_isolated_w: float

    @property
    def slowdown(self) -> float:
        """GEMM-time inflation under concurrent all-reduce."""
        if self.gemm_time_isolated_s <= 0:
            return 0.0
        return self.gemm_time_overlap_s / self.gemm_time_isolated_s - 1.0

    @property
    def peak_power_increase(self) -> float:
        """Relative peak-power increase from overlapping."""
        if self.peak_power_isolated_w <= 0:
            return 0.0
        return self.peak_power_overlap_w / self.peak_power_isolated_w - 1.0


def _build_plan(
    node: NodeSpec,
    n: int,
    repeats: int,
    with_comm: bool,
    path: ComputePath,
    allreduce_bytes: float,
) -> ExecutionPlan:
    name = f"microbench-n{n}-{'overlap' if with_comm else 'isolated'}"
    builder = PlanBuilder(name=name)
    gpus = list(range(node.num_gpus))
    kernel = gemm_kernel(f"matmul{n}", n, n, n, path)
    for _ in range(repeats):
        for g in gpus:
            builder.add_compute(g, kernel, phase="microbench")
    if with_comm:
        # Enough back-to-back all-reduces to cover the GEMM loop.
        from repro.collectives.cost_model import CollectiveCostModel
        from repro.collectives.library import library_for
        from repro.sim.rates import isolated_duration

        cost_model = CollectiveCostModel(
            node.link,
            library_for(node.gpu.vendor),
            node.calibration,
            node.gpu.memory.effective_bandwidth,
        )
        from repro.collectives.primitives import CollectiveOp

        probe = CollectiveOp(
            key="probe",
            kind=CollectiveKind.ALL_REDUCE,
            payload_bytes=allreduce_bytes,
            participants=tuple(gpus),
        )
        ar_time = cost_model.cost(probe).duration_s
        gemm_time = isolated_duration(kernel, node.gpu) * repeats
        num_allreduce = max(1, int(gemm_time / ar_time) + 1)
        for _ in range(num_allreduce):
            builder.add_collective(
                CollectiveKind.ALL_REDUCE,
                allreduce_bytes,
                gpus,
                phase="microbench",
                label="allreduce1gb",
            )
    return builder.build()


def run_microbench(
    node: NodeSpec,
    n: int,
    repeats: Optional[int] = None,
    path: ComputePath = FP16_TENSOR,
    allreduce_bytes: float = DEFAULT_ALLREDUCE_BYTES,
    config: Optional[SimConfig] = None,
) -> MicrobenchResult:
    """Run the Fig. 8 microbenchmark for one matrix size.

    ``repeats`` defaults to however many GEMMs fill ~100 ms of isolated
    execution, so the power sampler sees a comparable timeline for every
    matrix size.
    """
    if n < 1:
        raise ConfigurationError("matrix size must be positive")
    if repeats is None:
        from repro.sim.rates import isolated_duration

        probe_kernel = gemm_kernel(f"matmul{n}", n, n, n, path)
        iso = isolated_duration(probe_kernel, node.gpu)
        repeats = max(4, int(0.1 / max(iso, 1e-9)))
        repeats = min(repeats, 5000)
    if repeats < 1:
        raise ConfigurationError("repeats must be positive")
    if config is None:
        config = SimConfig()

    sampler = PowerSampler(interval_s=5.0 * MS)
    measurements = {}
    for with_comm in (True, False):
        plan = _build_plan(node, n, repeats, with_comm, path, allreduce_bytes)
        result = simulate(node, plan, config)
        gemm_time = result.total_time(TaskCategory.COMPUTE)
        segments = result.power_segments.get(0, [])
        trace = sampler.sample(segments)
        if trace.samples:
            avg_w, peak_w = trace.average_w, trace.peak_w
        elif segments:
            total_e = sum(s.energy_j for s in segments)
            avg_w = total_e / result.end_time_s if result.end_time_s else 0.0
            peak_w = max(s.power_w for s in segments)
        else:
            avg_w = peak_w = 0.0
        measurements[with_comm] = (gemm_time, avg_w, peak_w)

    overlap, isolated = measurements[True], measurements[False]
    return MicrobenchResult(
        n=n,
        gemm_time_overlap_s=overlap[0],
        gemm_time_isolated_s=isolated[0],
        avg_power_overlap_w=overlap[1],
        peak_power_overlap_w=overlap[2],
        avg_power_isolated_w=isolated[1],
        peak_power_isolated_w=isolated[2],
    )
