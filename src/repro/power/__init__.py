"""Power measurement and power-management experiment helpers.

Implements NVML-like and AMD-SMI-like samplers over the simulator's
piecewise-constant power traces (matching the paper's 100 ms / 20 ms /
1 ms sampling intervals), energy integration, and the power-capping
study harness of Fig. 9.
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
from repro.power.energy import node_energy_j

__all__ = [
    "PowerSample",
    "PowerSampler",
    "SampledTrace",
    "amd_smi_fast_sampler",
    "amd_smi_sampler",
    "node_energy_j",
    "nvml_sampler",
    "sampler_for",
]
