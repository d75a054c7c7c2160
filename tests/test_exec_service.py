"""Executor equivalence and caching guarantees of the execution service.

The acceptance grid is 2 GPUs x 2 models x 2 batches with 3-run
averaging. Serial and parallel executors must agree bit-for-bit, and a
warm-cache rerun must perform zero new simulations (observed via the
executor-level job counter) under every executor.
"""

import pytest

from repro.core.experiment import ExperimentConfig
from repro.core.modes import ExecutionMode
from repro.core.sweep import summarize_slowdowns
from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache
from repro.exec.executors import ParallelExecutor, SerialExecutor
from repro.exec.job import SimJob
from repro.exec.service import (
    ExecutionService,
    configure,
    default_service,
    reset_default_service,
)
from repro.scenario.runner import run_spec
from repro.scenario.spec import SweepSpec

MODES = (ExecutionMode.OVERLAPPED, ExecutionMode.SEQUENTIAL)
GRID = SweepSpec(
    base={"runs": 3},
    axes=[
        {"gpu": ["A100", "H100"]},
        {"model": ["gpt3-xl", "gpt3-2.7b"]},
        {"batch_size": [8, 16]},
    ],
    modes=MODES,
)


@pytest.fixture(scope="module")
def serial_service():
    return ExecutionService(SerialExecutor(), ResultCache())


@pytest.fixture(scope="module")
def serial_rows(serial_service):
    return run_spec(GRID, service=serial_service)


@pytest.fixture(scope="module")
def parallel_rows():
    service = ExecutionService(ParallelExecutor(max_workers=4), ResultCache())
    return run_spec(GRID, service=service)


def test_grid_covers_every_cell(serial_rows):
    assert len(serial_rows) == 8


def _assert_rows_identical(reference, candidate):
    assert len(candidate) == len(reference)
    for expected, actual in zip(reference, candidate):
        assert expected.config == actual.config
        assert expected.ran == actual.ran
        if expected.ran:
            # Dataclass equality compares every float exactly.
            assert expected.result.metrics == actual.result.metrics
            assert expected.result.modes == actual.result.modes
            assert expected.result.feasibility == actual.result.feasibility
        else:
            assert expected.skipped_reason == actual.skipped_reason


def test_parallel_matches_serial_bit_for_bit(serial_rows, parallel_rows):
    _assert_rows_identical(serial_rows, parallel_rows)


def test_warm_cache_rerun_simulates_nothing(serial_service, serial_rows):
    executed_before = serial_service.executor.jobs_executed
    rerun = run_spec(GRID, service=serial_service)
    assert serial_service.executor.jobs_executed == executed_before
    for original, cached in zip(serial_rows, rerun):
        if original.ran:
            assert cached.result.metrics == original.result.metrics
        else:
            assert cached.skipped_reason == original.skipped_reason


EXECUTOR_FACTORIES = {
    "serial": SerialExecutor,
    "process": lambda: ParallelExecutor(max_workers=2),
}


@pytest.mark.parametrize(
    "make_executor", EXECUTOR_FACTORIES.values(), ids=EXECUTOR_FACTORIES
)
def test_warm_rerun_accounting_under_every_executor(make_executor):
    """jobs_executed freezes on a warm rerun, whatever the fan-out."""
    service = ExecutionService(make_executor(), ResultCache())
    jobs = [
        SimJob(
            config=ExperimentConfig(
                gpu="A100", model="gpt3-xl", batch_size=batch, runs=1
            ),
            modes=MODES,
        )
        for batch in (8, 16)
    ]
    first = service.run_jobs(jobs)
    assert service.executor.jobs_executed == 2
    second = service.run_jobs(jobs)
    assert service.executor.jobs_executed == 2  # cache hits never fan out
    assert all(outcome.from_cache for outcome in second)
    for cold, warm in zip(first, second):
        assert cold.result.metrics == warm.result.metrics
        assert cold.result.modes == warm.result.modes


def test_planner_survives_concurrent_eviction_pressure():
    """The shared planner is thread-safe under fleet worker threads.

    Fleet workers running as threads of one process share its planner.
    A tiny plan cache plus more distinct keys than slots forces the
    FIFO eviction loop on every build; racing threads used to
    double-pop and raise KeyError out of the batch.
    """
    import threading

    from repro.exec.planning import Planner

    planner = Planner(max_plans=2)
    configs = [
        ExperimentConfig(
            gpu="A100", model="gpt3-xl", batch_size=batch, runs=1
        )
        for batch in (4, 8, 16, 32)
    ]
    errors = []

    def hammer():
        try:
            for _ in range(5):
                for config in configs:
                    planner.plan_for(config, overlap=True)
        except Exception as exc:  # pragma: no cover - the regression
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []


def test_settings_reject_unknown_executor_kind():
    from repro.exec.service import ExecutionSettings

    for kind in ("threads", "async"):
        settings = ExecutionSettings(executor=kind, jobs=8)
        with pytest.raises(ConfigurationError, match="unknown executor"):
            settings.build_executor()


def test_duplicate_jobs_in_one_batch_simulate_once():
    service = ExecutionService(SerialExecutor(), ResultCache())
    config = ExperimentConfig(gpu="A100", model="gpt3-xl", batch_size=8, runs=1)
    jobs = [SimJob(config=config, modes=MODES) for _ in range(3)]
    outcomes = service.run_jobs(jobs)
    assert service.executor.jobs_executed == 1
    assert [o.from_cache for o in outcomes] == [False, True, True]
    assert outcomes[0].result.metrics == outcomes[2].result.metrics


def test_cacheless_service_always_simulates():
    service = ExecutionService(SerialExecutor(), cache=None)
    config = ExperimentConfig(gpu="A100", model="gpt3-xl", batch_size=8, runs=1)
    service.run_config(config, modes=MODES)
    service.run_config(config, modes=MODES)
    assert service.executor.jobs_executed == 2


def test_summarize_slowdowns_on_all_infeasible_grid():
    service = ExecutionService(SerialExecutor(), ResultCache())
    spec = SweepSpec(
        base={"gpu": "A100", "runs": 1},
        axes=[
            {"model": ["gpt3-13b", "llama2-13b"]},
            {"batch_size": [8, 16]},
        ],
        modes=MODES,
    )
    rows = run_spec(spec, service=service)
    assert all(not row.ran for row in rows)
    summary = summarize_slowdowns(rows)
    assert summary == {
        "cells": 0,
        "mean_compute_slowdown": 0.0,
        "max_compute_slowdown": 0.0,
        "mean_sequential_penalty": 0.0,
        "max_sequential_penalty": 0.0,
    }
    # Infeasibility is cached too: the rerun submits nothing.
    executed = service.executor.jobs_executed
    run_spec(spec, service=service)
    assert service.executor.jobs_executed == executed


def test_disk_cache_survives_service_restart(tmp_path):
    config = ExperimentConfig(gpu="A100", model="gpt3-xl", batch_size=8, runs=1)
    first = ExecutionService(SerialExecutor(), ResultCache(tmp_path))
    result = first.run_config(config, modes=MODES)
    fresh = ExecutionService(SerialExecutor(), ResultCache(tmp_path))
    reloaded = fresh.run_config(config, modes=MODES)
    assert fresh.executor.jobs_executed == 0
    assert reloaded.metrics == result.metrics
    assert reloaded.modes == result.modes


def test_parallel_executor_rejects_bad_worker_count():
    with pytest.raises(ConfigurationError):
        ParallelExecutor(max_workers=0)


def test_configure_swaps_the_default_service():
    try:
        service = configure(jobs=2, cache=False)
        assert service is default_service()
        assert isinstance(service.executor, ParallelExecutor)
        assert service.executor.max_workers == 2
        assert service.cache is None
    finally:
        reset_default_service()
    assert isinstance(default_service().executor, SerialExecutor)
    assert default_service().cache is not None


def test_repro_jobs_env_sets_default(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    reset_default_service()
    try:
        service = default_service()
        assert isinstance(service.executor, ParallelExecutor)
        assert service.executor.max_workers == 3
        # configure() without jobs keeps the env-derived width.
        assert configure(cache=False).executor.max_workers == 3
    finally:
        monkeypatch.delenv("REPRO_JOBS")
        reset_default_service()
