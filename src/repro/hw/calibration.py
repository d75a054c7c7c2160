"""Contention calibration constants.

These coefficients encode the *mechanisms* of compute slowdown under
overlap that the paper identifies, with per-vendor values chosen so the
simulated slowdown/power landscape matches the paper's shape
(``EXPERIMENTS.md``, from ``python -m repro scenario run claims``,
tables each paper claim against this reproduction):

* collective kernels occupy SMs/CUs ("channels"); RCCL occupies a
  noticeably larger fraction of the GPU than NCCL, which is the main
  reason the MI2xx parts show higher slowdowns at equal overlap ratio;
* collective traffic consumes HBM bandwidth, plus an *interference*
  derate on top of pure bandwidth accounting (DRAM row-buffer conflicts
  and L2 thrash make co-running streams worse than additive);
* link bandwidth ramps with message size, so strategies that ship small
  messages (pipeline send/recv) contend less than FSDP's shard-sized
  all-gathers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hw.gpu import Vendor
from repro.units import MB


@dataclass(frozen=True)
class ContentionCalibration:
    """Vendor-level calibration of the contention model.

    Attributes:
        comm_sm_fraction: fraction of SMs/CUs a fully-active collective
            occupies (all channels launched).
        interference_factor: extra multiplicative derate applied to the
            HBM bandwidth available to compute while a collective is
            resident (beyond the bandwidth the collective itself uses).
        hbm_wire_scale: vendor scaling on the per-wire-byte HBM traffic
            of collectives (staging-buffer copy strategies differ).
        msg_half_bytes: message size at which links reach half of their
            sustained bandwidth.
        comm_clock_sensitivity: fraction of a collective's progress rate
            that scales with SM clock (the copy loops are partly
            clock-bound, mostly link-bound).
        spin_sm_scale: fraction of ``comm_sm_fraction`` a collective
            kernel pins while *waiting* for peers to arrive (NCCL/RCCL
            kernels busy-poll on their SMs before the rendezvous
            completes — the dominant contention source for pipeline
            parallelism, where receives are posted long before the
            matching send).
        stall_power_frac: fraction of the throughput *lost to
            contention* whose power a kernel keeps drawing anyway. A
            GEMM slowed by collective interference still has all its
            warps resident and its pipelines toggling on every replayed
            memory access, so its dynamic power drops far less than its
            throughput. This is what makes overlapped execution draw
            more board power than isolated execution (paper Figs. 7-8)
            even though the compute kernels run slower. It deliberately
            does not apply to a kernel's *intrinsic* memory-boundedness
            (an uncontended bandwidth-bound kernel draws little SM
            power), only to the contention-induced shortfall.
    """

    comm_sm_fraction: float
    interference_factor: float
    hbm_wire_scale: float = 1.0
    msg_half_bytes: float = 8.0 * MB
    comm_clock_sensitivity: float = 0.35
    spin_sm_scale: float = 0.45
    stall_power_frac: float = 0.65

    def __post_init__(self) -> None:
        if not 0.0 <= self.comm_sm_fraction < 1.0:
            raise ConfigurationError("comm_sm_fraction must be in [0, 1)")
        if not 0.0 <= self.interference_factor < 1.0:
            raise ConfigurationError("interference_factor must be in [0, 1)")
        if self.hbm_wire_scale <= 0:
            raise ConfigurationError("hbm_wire_scale must be positive")
        if self.msg_half_bytes < 0:
            raise ConfigurationError("msg_half_bytes must be >= 0")
        if not 0.0 <= self.comm_clock_sensitivity <= 1.0:
            raise ConfigurationError(
                "comm_clock_sensitivity must be in [0, 1]"
            )
        if not 0.0 <= self.spin_sm_scale <= 1.0:
            raise ConfigurationError("spin_sm_scale must be in [0, 1]")
        if not 0.0 <= self.stall_power_frac <= 1.0:
            raise ConfigurationError("stall_power_frac must be in [0, 1]")


#: NCCL on NVLink/NVSwitch: up to ~16 channels of 1 SM each on a
#: 108-132 SM part, modest interference.
NVIDIA_CALIBRATION = ContentionCalibration(
    comm_sm_fraction=0.09,
    interference_factor=0.08,
    hbm_wire_scale=1.0,
)

#: RCCL on Infinity Fabric: many more CUs per channel (RCCL launches a
#: full workgroup per channel on CDNA2 and uses up to ~32 channels) and
#: a heavier staging path; the paper attributes the MI2xx slowdown gap
#: to exactly this asymmetry ("differences in communication-computation
#: overlap support ... attributed to architectural distinctions").
AMD_CALIBRATION = ContentionCalibration(
    comm_sm_fraction=0.44,
    interference_factor=0.30,
    hbm_wire_scale=1.25,
)


def calibration_for(vendor: Vendor) -> ContentionCalibration:
    """Default calibration for a vendor."""
    if vendor is Vendor.NVIDIA:
        return NVIDIA_CALIBRATION
    return AMD_CALIBRATION
