"""Power measurement: NVML-like and AMD-SMI-like samplers over the
simulator's piecewise-constant power traces (matching the paper's
100 ms / 20 ms / 1 ms sampling intervals).

Energy needs no helper here: ``SimulationResult.energy_j()`` integrates
the node (or one GPU's) power segments exactly.
"""

from repro.power.sampling import (
    PowerSample,
    PowerSampler,
    SampledTrace,
    amd_smi_fast_sampler,
    amd_smi_sampler,
    nvml_sampler,
    sampler_for,
)

__all__ = [
    "PowerSample",
    "PowerSampler",
    "SampledTrace",
    "amd_smi_fast_sampler",
    "amd_smi_sampler",
    "nvml_sampler",
    "sampler_for",
]
