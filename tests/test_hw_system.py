"""Node specs and vendor calibration wiring."""

import pytest

from repro.errors import ConfigurationError
from repro.hw.calibration import (
    AMD_CALIBRATION,
    NVIDIA_CALIBRATION,
    ContentionCalibration,
    calibration_for,
)
from repro.hw.gpu import Vendor
from repro.hw.system import make_node
from repro.units import GIB


def test_make_node_wires_gpu_and_link():
    node = make_node("H100", 4)
    assert node.num_gpus == 4
    assert node.gpu.name == "H100"
    assert node.link.technology.startswith("NVLink4")


def test_default_calibration_follows_vendor():
    assert make_node("A100", 4).calibration is NVIDIA_CALIBRATION
    assert make_node("MI250", 4).calibration is AMD_CALIBRATION
    assert calibration_for(Vendor.AMD) is AMD_CALIBRATION


def test_amd_collectives_occupy_more_compute_units():
    """The paper's vendor asymmetry: RCCL pins more CUs than NCCL."""
    assert (
        AMD_CALIBRATION.comm_sm_fraction
        > NVIDIA_CALIBRATION.comm_sm_fraction
    )
    assert (
        AMD_CALIBRATION.interference_factor
        > NVIDIA_CALIBRATION.interference_factor
    )


def test_custom_calibration_override():
    custom = ContentionCalibration(
        comm_sm_fraction=0.0, interference_factor=0.0
    )
    node = make_node("H100", 4, calibration=custom)
    assert node.calibration.comm_sm_fraction == 0.0


def test_total_memory():
    node = make_node("A100", 4)
    assert node.num_gpus * node.gpu.memory.capacity_bytes == 4 * 40 * GIB


def test_describe_mentions_fabric():
    assert "InfinityFabric" in make_node("MI210", 4).describe()


def test_zero_gpus_rejected():
    with pytest.raises(ConfigurationError):
        make_node("A100", 0)


def test_calibration_validation():
    with pytest.raises(ConfigurationError):
        ContentionCalibration(comm_sm_fraction=1.0, interference_factor=0.0)
    with pytest.raises(ConfigurationError):
        ContentionCalibration(comm_sm_fraction=0.1, interference_factor=-0.2)
    with pytest.raises(ConfigurationError):
        ContentionCalibration(
            comm_sm_fraction=0.1, interference_factor=0.1, spin_sm_scale=1.5
        )
