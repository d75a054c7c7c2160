"""Tests for SimJob hashing, the planner caches and result serialization."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core.modes import ExecutionMode
from repro.errors import ConfigurationError, InfeasibleConfigError
from repro.exec.cache import (
    ResultCache,
    outcome_from_payload,
    outcome_to_payload,
    result_from_payload,
    result_to_payload,
)
from repro.exec.job import JobOutcome, SimJob
from repro.exec.planning import Planner
from repro.hw.calibration import calibration_for
from repro.hw.gpu import Vendor

CONFIG = ExperimentConfig(gpu="A100", model="gpt3-xl", batch_size=8, runs=1)
TWO_MODES = (ExecutionMode.OVERLAPPED, ExecutionMode.SEQUENTIAL)


def test_cache_key_is_deterministic_sha256():
    a = SimJob(config=CONFIG, modes=TWO_MODES)
    b = SimJob(config=CONFIG, modes=TWO_MODES)
    assert a.cache_key() == b.cache_key()
    assert len(a.cache_key()) == 64
    int(a.cache_key(), 16)  # valid hex


def test_cache_key_depends_on_config_fields():
    base = SimJob(config=CONFIG, modes=TWO_MODES)
    for update in (
        {"batch_size": 16},
        {"gpu": "H100"},
        {"runs": 2},
        {"base_seed": 7},
        {"jitter_sigma": 0.05},
        {"power_limit_w": 200.0},
    ):
        changed = SimJob(config=CONFIG.with_updates(**update), modes=TWO_MODES)
        assert changed.cache_key() != base.cache_key(), update


def test_cache_key_depends_on_modes():
    two = SimJob(config=CONFIG, modes=TWO_MODES)
    three = SimJob(config=CONFIG)
    assert two.cache_key() != three.cache_key()


def test_cache_keys_are_pinned():
    """Existing on-disk caches and manifests stay valid only while a
    cell's payload digest is stable; a change that moves these keys
    must bump ``CACHE_SCHEMA_VERSION`` and re-pin them."""
    assert SimJob(config=CONFIG, modes=TWO_MODES).cache_key() == (
        "aab9fce93c46d44bef5c3a8a15e67df68bd93feecf86e1da918e043606443419"
    )
    assert SimJob(config=CONFIG).cache_key() == (
        "9c81394232d5ed7e261b98bb69194629220a5dff55e2f3f645face3a635eacdb"
    )
    straggler = CONFIG.with_updates(
        perturbations=(
            {"kind": "straggler_rank", "target": "gpu:0", "magnitude": 0.25},
        )
    )
    assert SimJob(config=straggler, modes=TWO_MODES).cache_key() == (
        "5c433e191b4e26ed1298f965a9c6a7453dc239dfcd7333cae46080d379ec6c41"
    )


def test_one_cell_never_imports_numpy():
    """numpy is optional: simulating a cell must not import it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    script = (
        "import sys\n"
        "from repro.core.experiment import ExperimentConfig, run_experiment\n"
        "run_experiment(ExperimentConfig(gpu='A100', model='gpt3-xl',\n"
        "                                batch_size=8, runs=1))\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_cache_key_folds_in_calibration_overrides():
    base = SimJob(config=CONFIG, modes=TWO_MODES)
    cal = calibration_for(Vendor.NVIDIA)
    tweaked = dataclasses.replace(cal, comm_sm_fraction=0.31)
    overridden = SimJob(
        config=CONFIG.with_updates(calibration=tweaked), modes=TWO_MODES
    )
    assert overridden.cache_key() != base.cache_key()
    # The payload (with nested calibration dataclass) is valid JSON.
    json.dumps(overridden.payload())


def test_job_requires_at_least_one_mode():
    with pytest.raises(ConfigurationError):
        SimJob(config=CONFIG, modes=())


def test_outcome_unwrap_raises_infeasibility():
    outcome = JobOutcome(
        job=SimJob(config=CONFIG), skipped_reason="out of memory"
    )
    with pytest.raises(InfeasibleConfigError, match="out of memory"):
        outcome.unwrap()


def test_result_payload_round_trip():
    result = run_experiment(CONFIG, modes=TWO_MODES)
    payload = json.loads(json.dumps(result_to_payload(result)))
    rebuilt = result_from_payload(CONFIG, payload)
    assert rebuilt.metrics == result.metrics
    assert rebuilt.modes == result.modes
    assert rebuilt.feasibility == result.feasibility
    assert rebuilt.config is CONFIG


def test_outcome_payload_rejects_schema_mismatch():
    job = SimJob(config=CONFIG, modes=TWO_MODES)
    payload = outcome_to_payload(JobOutcome(job=job, skipped_reason="oom"))
    payload["schema"] = -1
    assert outcome_from_payload(job, payload) is None


def test_disk_cache_ignores_corrupt_files(tmp_path):
    cache = ResultCache(tmp_path)
    job = SimJob(config=CONFIG, modes=TWO_MODES)
    (tmp_path / f"{job.cache_key()}.json").write_text("{not json")
    assert cache.get(job) is None  # miss, not a crash


def test_planner_reuses_plans_and_cost_models():
    planner = Planner()
    run_experiment(CONFIG, modes=TWO_MODES, planner=planner)
    builds = planner.plan_builds
    assert builds == 2  # one overlapped, one sequential plan
    # Same cell again: nothing new is built.
    run_experiment(CONFIG, modes=TWO_MODES, planner=planner)
    assert planner.plan_builds == builds
    # A different batch shares the node and cost model, not the plans.
    bigger = CONFIG.with_updates(batch_size=16)
    assert planner.cost_model_for(bigger) is planner.cost_model_for(CONFIG)
    assert planner.node_for(bigger) is planner.node_for(CONFIG)
    run_experiment(bigger, modes=TWO_MODES, planner=planner)
    assert planner.plan_builds == builds + 2


def test_planner_shared_plans_do_not_change_results():
    planner = Planner()
    first = run_experiment(CONFIG, modes=TWO_MODES, planner=planner)
    second = run_experiment(CONFIG, modes=TWO_MODES, planner=Planner())
    assert first.metrics == second.metrics
    assert first.modes == second.modes


def test_cache_rejects_file_as_directory(tmp_path):
    bogus = tmp_path / "not-a-dir"
    bogus.write_text("")
    with pytest.raises(ConfigurationError, match="not a directory"):
        ResultCache(bogus)
