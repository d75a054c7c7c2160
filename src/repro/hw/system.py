"""Node-level system description: N GPUs behind one fabric."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError
from repro.hw.calibration import ContentionCalibration, calibration_for
from repro.hw.gpu import GpuSpec
from repro.hw.interconnect import LinkSpec


@dataclass(frozen=True)
class NodeSpec:
    """A single-node multi-GPU system (the paper studies 4- and 8-GPU
    single-node configurations exclusively)."""

    name: str
    gpu: GpuSpec
    num_gpus: int
    link: LinkSpec
    calibration: ContentionCalibration = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ConfigurationError("a node needs at least one GPU")
        if self.calibration is None:
            object.__setattr__(
                self, "calibration", calibration_for(self.gpu.vendor)
            )

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.num_gpus}x {self.gpu.name} "
            f"({self.link.technology}, "
            f"{self.link.aggregate_bidir_bytes_per_s / 1e9:.0f} GB/s)"
        )


def make_node(
    gpu_name: str,
    num_gpus: int,
    calibration: Optional[ContentionCalibration] = None,
) -> NodeSpec:
    """Build a :class:`NodeSpec` from a registered GPU name.

    >>> node = make_node("H100", 4)
    >>> node.num_gpus
    4
    """
    # Imported here to avoid a registry <-> system import cycle.
    from repro.hw.registry import get_gpu, get_link

    gpu = get_gpu(gpu_name)
    link = get_link(gpu_name)
    name = f"{gpu.name.lower()}-x{num_gpus}"
    if calibration is None:
        calibration = calibration_for(gpu.vendor)
    return NodeSpec(
        name=name, gpu=gpu, num_gpus=num_gpus, link=link, calibration=calibration
    )
