"""Power-limit governor behaviour (the Fig. 9 mechanism)."""

import pytest

from repro.errors import ConfigurationError
from repro.hw.dvfs import FrequencyGovernor, PowerLimitPolicy


def make_governor(limit=300.0, max_clock=1.0):
    policy = PowerLimitPolicy(limit_w=limit, max_clock_frac=max_clock)
    return FrequencyGovernor(policy)


def test_starts_unthrottled():
    gov = make_governor()
    assert gov.clock_frac == 1.0


def test_sustained_over_limit_throttles():
    gov = make_governor(limit=300.0)
    for _ in range(200):
        gov.observe(450.0)
    assert gov.clock_frac < 0.9


def test_under_limit_recovers_to_max():
    gov = make_governor(limit=300.0)
    for _ in range(200):
        gov.observe(450.0)
    throttled = gov.clock_frac
    for _ in range(500):
        gov.observe(100.0)
    assert gov.clock_frac > throttled
    assert gov.clock_frac == pytest.approx(1.0)


def test_never_drops_below_min_clock():
    policy = PowerLimitPolicy(limit_w=50.0)
    gov = FrequencyGovernor(policy, min_clock_frac=0.3)
    for _ in range(1000):
        gov.observe(800.0)
    assert gov.clock_frac == pytest.approx(0.3)


def test_respects_frequency_cap():
    gov = make_governor(limit=1000.0, max_clock=0.7)
    for _ in range(100):
        gov.observe(10.0)
    assert gov.clock_frac <= 0.7


def test_ewma_smooths_transients():
    gov = make_governor(limit=300.0)
    gov.observe(300.0)
    # One 2 ms spike inside an 80 ms window barely moves the EWMA.
    gov.observe(1200.0)
    assert gov._ewma_w < 350.0


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        PowerLimitPolicy(limit_w=0.0)
    with pytest.raises(ConfigurationError):
        PowerLimitPolicy(limit_w=100.0, control_period_s=0.0)
    with pytest.raises(ConfigurationError):
        PowerLimitPolicy(limit_w=100.0, max_clock_frac=1.5)
    with pytest.raises(ConfigurationError):
        PowerLimitPolicy(
            limit_w=100.0, control_period_s=0.1, ewma_window_s=0.01
        )


def test_negative_power_sample_rejected():
    gov = make_governor()
    with pytest.raises(ConfigurationError):
        gov.observe(-1.0)
