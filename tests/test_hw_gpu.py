"""GPU registry and spec invariants (paper Table I)."""

import pytest

from repro.errors import ConfigurationError, UnknownSpecError
from repro.hw.datapath import (
    ComputePath,
    Datapath,
    FP16_TENSOR,
    FP32_VECTOR,
    Precision,
    TF32_TENSOR,
)
from repro.hw.gpu import Vendor
from repro.hw.registry import get_gpu, get_link, list_gpus
from repro.units import GIB, TFLOPS


def test_registry_contains_the_four_evaluated_gpus():
    assert set(list_gpus()) == {"A100", "H100", "MI210", "MI250"}


def test_lookup_is_case_insensitive():
    assert get_gpu("h100") is get_gpu("H100")


def test_unknown_gpu_raises_with_candidates():
    with pytest.raises(UnknownSpecError) as excinfo:
        get_gpu("V100")
    assert "A100" in str(excinfo.value)


@pytest.mark.parametrize(
    "name,vendor,memory_gib,tdp",
    [
        ("A100", Vendor.NVIDIA, 40, 400.0),
        ("H100", Vendor.NVIDIA, 80, 700.0),
        ("MI210", Vendor.AMD, 64, 300.0),
        ("MI250", Vendor.AMD, 128, 560.0),
    ],
)
def test_datasheet_fields(name, vendor, memory_gib, tdp):
    gpu = get_gpu(name)
    assert gpu.vendor is vendor
    assert gpu.memory.capacity_bytes == memory_gib * GIB
    assert gpu.tdp_w == tdp


def test_table1_peak_flops_columns():
    assert get_gpu("A100").datasheet_fp32_tflops == 19.5
    assert get_gpu("A100").datasheet_fp16_tflops == 312.0
    assert get_gpu("H100").datasheet_fp16_tflops == 1979.0
    assert get_gpu("MI210").datasheet_fp32_tflops == 22.6
    assert get_gpu("MI250").datasheet_fp16_tflops == 362.1


def test_fp16_tensor_beats_fp32_vector_everywhere():
    for name in list_gpus():
        gpu = get_gpu(name)
        assert gpu.peak(FP16_TENSOR) > gpu.peak(FP32_VECTOR)


def test_h100_simulation_peak_is_dense_not_sparse():
    h100 = get_gpu("H100")
    assert h100.peak(FP16_TENSOR) == pytest.approx(989.4 * TFLOPS)


def test_unsupported_path_raises():
    gpu = get_gpu("A100")
    bogus = ComputePath(Precision.BF16, Datapath.VECTOR)
    assert bogus not in gpu.peak_flops
    with pytest.raises(ConfigurationError):
        gpu.peak(bogus)


def test_links_match_paper_section_iv():
    assert get_link("H100").aggregate_bidir_bytes_per_s == 900e9
    assert get_link("A100").aggregate_bidir_bytes_per_s == 600e9
    for amd in ("MI210", "MI250"):
        assert get_link(amd).aggregate_bidir_bytes_per_s == 300e9
        assert not get_link(amd).switched


def test_sm_fraction_clamps():
    gpu = get_gpu("A100")
    assert gpu.sm_fraction(54) == pytest.approx(0.5)
    assert gpu.sm_fraction(1000) == 1.0
    assert gpu.sm_fraction(-5) == 0.0


def test_tf32_path_requires_tensor_cores():
    with pytest.raises(ConfigurationError):
        ComputePath(Precision.TF32, Datapath.VECTOR)
    assert TF32_TENSOR.precision.bytes_per_element == 4
