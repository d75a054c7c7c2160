"""Tests for the experiment runner."""

import pytest

from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core.modes import ExecutionMode
from repro.errors import InfeasibleConfigError
from repro.hw.calibration import NVIDIA_CALIBRATION
from repro.hw.datapath import Datapath, Precision

QUICK = dict(gpu="A100", model="gpt3-xl", batch_size=8, runs=1)


def test_describe_mentions_key_knobs():
    config = ExperimentConfig(**QUICK, power_limit_w=150.0)
    text = config.describe()
    assert "A100" in text and "gpt3-xl" in text and "150" in text


def test_shape_resolves_precision_path():
    config = ExperimentConfig(**QUICK, precision=Precision.FP32,
                              use_tensor_cores=False)
    assert config.shape().path.datapath is Datapath.VECTOR
    tf32 = ExperimentConfig(**QUICK, precision=Precision.FP32,
                            use_tensor_cores=True)
    assert tf32.shape().path.precision is Precision.TF32


def test_with_updates_is_functional():
    config = ExperimentConfig(**QUICK)
    other = config.with_updates(batch_size=32)
    assert config.batch_size == 8
    assert other.batch_size == 32


def test_calibration_override_reaches_node():
    config = ExperimentConfig(**QUICK, calibration=NVIDIA_CALIBRATION)
    assert config.node().calibration is NVIDIA_CALIBRATION


def test_infeasible_config_raises():
    config = ExperimentConfig(
        gpu="A100", model="gpt3-13b", batch_size=8, runs=1
    )
    with pytest.raises(InfeasibleConfigError, match="memory"):
        run_experiment(config)


def test_check_memory_false_skips_oom_guard():
    config = ExperimentConfig(
        gpu="A100",
        model="gpt3-13b",
        batch_size=8,
        runs=1,
        check_memory=False,
    )
    result = run_experiment(
        config, modes=(ExecutionMode.OVERLAPPED, ExecutionMode.SEQUENTIAL)
    )
    assert not result.feasibility.fits
    assert result.metrics.e2e_overlapping_s > 0


@pytest.fixture(scope="module")
def quick_result():
    return run_experiment(ExperimentConfig(**QUICK))


def test_all_three_modes_present(quick_result):
    assert set(quick_result.modes) == {
        ExecutionMode.OVERLAPPED,
        ExecutionMode.SEQUENTIAL,
        ExecutionMode.IDEAL,
    }


def test_mode_ordering_invariants(quick_result):
    ov = quick_result.modes[ExecutionMode.OVERLAPPED].e2e_s
    seq = quick_result.modes[ExecutionMode.SEQUENTIAL].e2e_s
    ideal = quick_result.modes[ExecutionMode.IDEAL].e2e_s
    assert ideal <= ov <= seq


def test_compute_slowdown_nonnegative(quick_result):
    assert quick_result.metrics.compute_slowdown >= 0


def test_overlap_ratio_in_unit_interval(quick_result):
    assert 0.0 <= quick_result.metrics.overlap_ratio <= 1.0


def test_power_vs_tdp_returns_sane_fractions(quick_result):
    for mode in quick_result.modes:
        avg, peak = quick_result.power_vs_tdp(mode)
        assert 0.0 < avg <= peak < 2.0


def test_determinism_across_invocations():
    a = run_experiment(
        ExperimentConfig(**QUICK),
        modes=(ExecutionMode.OVERLAPPED, ExecutionMode.SEQUENTIAL),
    )
    b = run_experiment(
        ExperimentConfig(**QUICK),
        modes=(ExecutionMode.OVERLAPPED, ExecutionMode.SEQUENTIAL),
    )
    assert a.metrics.e2e_overlapping_s == b.metrics.e2e_overlapping_s
    assert a.metrics.compute_slowdown == b.metrics.compute_slowdown


def test_different_seeds_change_results():
    a = run_experiment(
        ExperimentConfig(**QUICK),
        modes=(ExecutionMode.OVERLAPPED, ExecutionMode.SEQUENTIAL),
    )
    b = run_experiment(
        ExperimentConfig(**QUICK).with_updates(base_seed=123),
        modes=(ExecutionMode.OVERLAPPED, ExecutionMode.SEQUENTIAL),
    )
    assert a.metrics.e2e_overlapping_s != b.metrics.e2e_overlapping_s


def test_run_averaging_tightens_estimates():
    single = run_experiment(
        ExperimentConfig(**QUICK).with_updates(runs=3),
        modes=(ExecutionMode.OVERLAPPED, ExecutionMode.SEQUENTIAL),
    )
    stats = single.modes[ExecutionMode.OVERLAPPED]
    assert len(stats.e2e_samples) == 3


def test_zero_jitter_removes_variance():
    result = run_experiment(
        ExperimentConfig(**QUICK).with_updates(runs=3, jitter_sigma=0.0),
        modes=(ExecutionMode.OVERLAPPED, ExecutionMode.SEQUENTIAL),
    )
    samples = result.modes[ExecutionMode.OVERLAPPED].e2e_samples
    assert max(samples) - min(samples) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "field,value",
    [
        ("batch_size", 0),
        ("num_gpus", 0),
        ("seq_len", 0),
        ("runs", 0),
        ("jitter_sigma", -0.1),
        ("power_limit_w", -100.0),
        ("max_clock_frac", 0.0),
        ("max_clock_frac", 1.5),
        ("microbatch_size", 0),
    ],
)
def test_config_validation_rejects(field, value):
    from repro.errors import ConfigurationError

    kwargs = dict(QUICK)
    kwargs[field] = value
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**kwargs)


def test_top_level_exports():
    import repro

    assert repro.ExperimentConfig is ExperimentConfig
    assert callable(repro.run_experiment)
    assert repro.ExecutionMode.OVERLAPPED.value == "overlapped"
