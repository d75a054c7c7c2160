"""Component power model and activity clamping."""

import pytest

from repro.errors import ConfigurationError
from repro.hw.datapath import Datapath
from repro.hw.power import (
    DVFS_POWER_EXPONENT,
    GpuActivity,
    GpuPowerCoefficients,
    PowerEvaluator,
    gpu_power,
)

TDP = 400.0


def test_idle_power_is_idle_fraction():
    coeffs = GpuPowerCoefficients()
    assert gpu_power(TDP, coeffs, GpuActivity()) == pytest.approx(
        TDP * coeffs.idle_frac
    )


def test_full_tilt_overlap_exceeds_tdp():
    """The sum of the maxed terms must exceed TDP: the paper's >1x TDP
    spikes during overlap depend on it."""
    coeffs = GpuPowerCoefficients()
    activity = GpuActivity(
        sm_util={Datapath.TENSOR: 1.0, Datapath.VECTOR: 0.2},
        hbm_frac=1.0,
        link_frac=1.0,
    )
    assert gpu_power(TDP, coeffs, activity) > TDP


def test_power_monotone_in_each_component():
    coeffs = GpuPowerCoefficients()
    base = GpuActivity(sm_util={Datapath.TENSOR: 0.5}, hbm_frac=0.3)
    p0 = gpu_power(TDP, coeffs, base)
    more_sm = GpuActivity(sm_util={Datapath.TENSOR: 0.8}, hbm_frac=0.3)
    more_hbm = GpuActivity(sm_util={Datapath.TENSOR: 0.5}, hbm_frac=0.6)
    more_link = GpuActivity(
        sm_util={Datapath.TENSOR: 0.5}, hbm_frac=0.3, link_frac=0.5
    )
    assert gpu_power(TDP, coeffs, more_sm) > p0
    assert gpu_power(TDP, coeffs, more_hbm) > p0
    assert gpu_power(TDP, coeffs, more_link) > p0


def test_clock_scaling_applies_to_sm_term_only():
    coeffs = GpuPowerCoefficients()
    full = GpuActivity(sm_util={Datapath.TENSOR: 1.0}, clock_frac=1.0)
    half = GpuActivity(sm_util={Datapath.TENSOR: 1.0}, clock_frac=0.5)
    p_full = gpu_power(TDP, coeffs, full)
    p_half = gpu_power(TDP, coeffs, half)
    expected_dynamic = (
        coeffs.sm_max_frac[Datapath.TENSOR] * 0.5**DVFS_POWER_EXPONENT
    )
    assert p_half == pytest.approx(
        TDP * (coeffs.idle_frac + expected_dynamic)
    )
    assert p_half < p_full


def test_activity_clamps_out_of_range_values():
    act = GpuActivity(
        sm_util={Datapath.TENSOR: 1.7}, hbm_frac=-0.5, link_frac=2.0
    ).clamped()
    assert act.sm_util[Datapath.TENSOR] == 1.0
    assert act.hbm_frac == 0.0
    assert act.link_frac == 1.0


def test_tensor_units_draw_more_than_vector_at_full_util():
    coeffs = GpuPowerCoefficients()
    tensor = gpu_power(
        TDP, coeffs, GpuActivity(sm_util={Datapath.TENSOR: 1.0})
    )
    vector = gpu_power(
        TDP, coeffs, GpuActivity(sm_util={Datapath.VECTOR: 1.0})
    )
    assert tensor > vector


def test_invalid_coefficients_rejected():
    with pytest.raises(ConfigurationError):
        GpuPowerCoefficients(idle_frac=1.5)
    with pytest.raises(ConfigurationError):
        GpuPowerCoefficients(hbm_max_frac=-0.1)
    # The engine reads both SM coefficients when it builds its power
    # pass; a partial table fails at construction, not mid-run.
    with pytest.raises(ConfigurationError, match="no SM power coefficient"):
        GpuPowerCoefficients(sm_max_frac={Datapath.VECTOR: 0.78})


def test_evaluate_parts_matches_gpu_power():
    coeffs = GpuPowerCoefficients()
    evaluator = PowerEvaluator(TDP, coeffs)
    cases = [
        GpuActivity(),
        GpuActivity(
            sm_util={Datapath.TENSOR: 0.9, Datapath.VECTOR: 0.4},
            hbm_frac=0.7,
            link_frac=0.3,
            clock_frac=0.8,
        ),
        # Out-of-range values exercise the clamps.
        GpuActivity(
            sm_util={Datapath.VECTOR: 1.7}, hbm_frac=1.4, link_frac=-0.1,
            clock_frac=1.0,
        ),
    ]
    for activity in cases:
        expected = gpu_power(TDP, coeffs, activity)
        assert (
            evaluator.evaluate_parts(
                activity.clock_frac,
                activity.hbm_frac,
                activity.link_frac,
                tuple(activity.sm_util.items()),
            )
            == expected
        )
    assert evaluator.idle_power() == gpu_power(TDP, coeffs, GpuActivity())
