"""Per-kernel roofline analysis for a workload on a GPU.

Classifies every kernel of a training iteration as compute- or
bandwidth-bound, reports its isolated duration and share of iteration
time, and shows how much headroom contention can erode (the machine
balance point: kernels near the ridge flip from compute- to
bandwidth-bound when collectives steal HBM bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.hw.gpu import GpuSpec
from repro.sim.rates import compute_rate, isolated_duration
from repro.workloads.kernels import KernelSpec
from repro.workloads.spec import ModelSpec
from repro.workloads.transformer import TrainingShape, build_iteration


@dataclass(frozen=True)
class RooflinePoint:
    """One kernel's position on the roofline of one GPU."""

    kernel: KernelSpec
    arithmetic_intensity: float
    ridge_intensity: float
    achieved_flops: float
    peak_flops: float
    isolated_s: float

    @property
    def compute_bound(self) -> bool:
        """Whether the kernel sits right of the ridge (compute-bound)."""
        return self.arithmetic_intensity >= self.ridge_intensity

    @property
    def peak_fraction(self) -> float:
        """Achieved fraction of the datapath's raw peak."""
        if self.peak_flops <= 0:
            return 0.0
        return self.achieved_flops / self.peak_flops


def roofline_point(kernel: KernelSpec, gpu: GpuSpec) -> RooflinePoint:
    """Place one kernel on ``gpu``'s roofline."""
    peak = gpu.peak(kernel.path) * kernel.efficiency
    bandwidth = gpu.memory.effective_bandwidth
    ridge = peak / bandwidth if bandwidth > 0 else float("inf")
    rate = compute_rate(
        kernel,
        gpu,
        sm_fraction=1.0,
        hbm_bytes_per_s=bandwidth,
        clock_frac=1.0,
    )
    return RooflinePoint(
        kernel=kernel,
        arithmetic_intensity=kernel.arithmetic_intensity,
        ridge_intensity=ridge,
        achieved_flops=rate,
        peak_flops=gpu.peak(kernel.path),
        isolated_s=isolated_duration(kernel, gpu),
    )


def roofline_report(
    model: ModelSpec, shape: TrainingShape, gpu: GpuSpec
) -> List[RooflinePoint]:
    """Roofline points for every kernel of one training iteration,
    sorted by isolated duration (largest first)."""
    bundle = build_iteration(model, shape)
    kernels = bundle.forward + bundle.backward + bundle.optimizer
    points = [roofline_point(k, gpu) for k in kernels]
    points.sort(key=lambda p: p.isolated_s, reverse=True)
    return points


def bound_time_split(points: List[RooflinePoint]) -> Dict[str, float]:
    """Iteration time split between compute- and bandwidth-bound kernels.

    The paper's contention mechanism acts differently on the two
    classes: bandwidth-bound kernels suffer from the collective's HBM
    traffic, compute-bound ones from SM channel stealing.
    """
    compute_s = sum(p.isolated_s for p in points if p.compute_bound)
    memory_s = sum(p.isolated_s for p in points if not p.compute_bound)
    total = compute_s + memory_s
    return {
        "compute_bound_s": compute_s,
        "memory_bound_s": memory_s,
        "compute_bound_fraction": compute_s / total if total else 0.0,
    }


def render_roofline(points: List[RooflinePoint], top: int = 12) -> str:
    """Human-readable roofline table (top-N kernels by time)."""
    lines = [
        f"{'kernel':<28} {'AI':>9} {'ridge':>7} {'bound':>7} "
        f"{'%peak':>6} {'iso_ms':>8}"
    ]
    for p in points[:top]:
        ai = (
            "inf"
            if p.arithmetic_intensity == float("inf")
            else f"{p.arithmetic_intensity:.1f}"
        )
        lines.append(
            f"{p.kernel.name:<28} {ai:>9} {p.ridge_intensity:>7.1f} "
            f"{'comp' if p.compute_bound else 'mem':>7} "
            f"{p.peak_fraction * 100:>5.1f}% "
            f"{p.isolated_s * 1e3:>8.3f}"
        )
    return "\n".join(lines)
