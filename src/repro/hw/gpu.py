"""GPU specifications for the four accelerators evaluated in the paper."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.errors import ConfigurationError
from repro.hw.datapath import ComputePath, Datapath, Precision
from repro.hw.memory import HbmSpec
from repro.hw.power import GpuPowerCoefficients


class Vendor(enum.Enum):
    """GPU vendor; selects the collective library (NCCL vs RCCL) and
    the vendor-specific contention calibration."""

    NVIDIA = "nvidia"
    AMD = "amd"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class GpuSpec:
    """Static description of one GPU model.

    ``peak_flops`` holds *dense* achievable peaks per compute path (the
    numbers a GEMM can approach), while ``datasheet_fp32_tflops`` /
    ``datasheet_fp16_tflops`` reproduce the marketing numbers the paper
    prints in Table I verbatim (H100's 1979 TFLOPS is the 2:4-sparsity
    figure; simulation uses the dense 989.4).
    """

    name: str
    vendor: Vendor
    year: int
    peak_flops: Mapping[ComputePath, float]
    memory: HbmSpec
    num_sms: int
    boost_clock_hz: float
    tdp_w: float
    min_clock_frac: float = 0.30
    power: GpuPowerCoefficients = field(default_factory=GpuPowerCoefficients)
    datasheet_fp32_tflops: Optional[float] = None
    datasheet_fp16_tflops: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.peak_flops:
            raise ConfigurationError(f"{self.name}: peak_flops must be non-empty")
        for path, flops in self.peak_flops.items():
            if flops <= 0:
                raise ConfigurationError(
                    f"{self.name}: peak FLOPS for {path} must be positive"
                )
        if self.num_sms <= 0:
            raise ConfigurationError(f"{self.name}: num_sms must be positive")
        if self.tdp_w <= 0:
            raise ConfigurationError(f"{self.name}: TDP must be positive")
        if not 0.0 < self.min_clock_frac <= 1.0:
            raise ConfigurationError(
                f"{self.name}: min_clock_frac must be in (0, 1]"
            )

    def peak(self, path: ComputePath) -> float:
        """Dense peak FLOP/s for a compute path.

        Raises :class:`ConfigurationError` if the GPU lacks that path
        (e.g. TF32 on AMD CDNA2, which has no TF32 mode).
        """
        try:
            return self.peak_flops[path]
        except KeyError:
            supported = ", ".join(str(p) for p in self.peak_flops)
            raise ConfigurationError(
                f"{self.name} does not support {path} (supported: {supported})"
            ) from None

    def sm_fraction(self, num_sms: float) -> float:
        """Fraction of the GPU's SMs/CUs represented by ``num_sms``."""
        return min(max(num_sms / self.num_sms, 0.0), 1.0)


def _nvidia_paths(
    fp32: float, tf32: float, fp16: float
) -> Mapping[ComputePath, float]:
    return {
        ComputePath(Precision.FP32, Datapath.VECTOR): fp32,
        ComputePath(Precision.TF32, Datapath.TENSOR): tf32,
        ComputePath(Precision.FP16, Datapath.TENSOR): fp16,
        ComputePath(Precision.BF16, Datapath.TENSOR): fp16,
        ComputePath(Precision.FP16, Datapath.VECTOR): 2.0 * fp32,
    }


def _amd_paths(fp32: float, fp32_matrix: float, fp16: float) -> Mapping[ComputePath, float]:
    return {
        ComputePath(Precision.FP32, Datapath.VECTOR): fp32,
        # CDNA2 exposes FP32 on matrix cores rather than a TF32 mode.
        ComputePath(Precision.TF32, Datapath.TENSOR): fp32_matrix,
        ComputePath(Precision.FP16, Datapath.TENSOR): fp16,
        ComputePath(Precision.BF16, Datapath.TENSOR): fp16,
        ComputePath(Precision.FP16, Datapath.VECTOR): 2.0 * fp32,
    }


__all__ = ["GpuSpec", "Vendor", "_nvidia_paths", "_amd_paths"]
