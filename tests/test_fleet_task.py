"""The SimTask wire contract: construction-time validation, JSON
round-trips, and rejection of malformed or hash-mismatched payloads
(the acceptance criterion of the fleet's trust boundary)."""

import json

import pytest

from repro.core.experiment import ExperimentConfig
from repro.core.modes import ExecutionMode
from repro.errors import FleetError, ReproError, TaskContractError
from repro.exec.job import CACHE_SCHEMA_VERSION, SimJob
from repro.fleet.task import (
    TASK_SCHEMA_VERSION,
    SimTask,
    code_version,
    task_from_job,
)
from repro.version import __version__

MODES = (ExecutionMode.OVERLAPPED, ExecutionMode.SEQUENTIAL)


def _job(batch: int = 8, seed: int = 0) -> SimJob:
    return SimJob(
        config=ExperimentConfig(
            gpu="A100", model="gpt3-xl", batch_size=batch,
            runs=1, base_seed=seed,
        ),
        modes=MODES,
    )


def test_contract_error_is_a_fleet_and_repro_error():
    assert issubclass(TaskContractError, FleetError)
    assert issubclass(TaskContractError, ReproError)


def test_code_version_pins_package_and_cache_schema():
    assert code_version() == f"repro-{__version__}/cache-v{CACHE_SCHEMA_VERSION}"


def test_task_from_job_round_trips_to_the_same_job():
    job = _job()
    task = task_from_job(job, "spec-hash")
    assert task.cache_key == job.cache_key()
    assert task.spec_hash == "spec-hash"
    assert task.code_version == code_version()
    rebuilt = task.to_job()
    assert rebuilt.cache_key() == job.cache_key()
    assert rebuilt.config == job.config
    assert rebuilt.modes == job.modes


def test_payload_round_trip_preserves_identity():
    task = task_from_job(_job(seed=3), "h")
    clone = SimTask.from_payload(task.to_payload())
    assert clone == task
    assert clone.seed == 3
    assert clone.to_job().cache_key() == task.cache_key


def test_json_round_trip_survives_a_dump_load_cycle():
    task = task_from_job(_job(), "h")
    payload = json.loads(json.dumps(task.to_payload()))
    assert SimTask.from_payload(payload) == task


def test_declared_key_must_match_derived_key():
    good = task_from_job(_job(batch=8), "h").to_payload()
    other = task_from_job(_job(batch=16), "h").to_payload()
    tampered = dict(good, cache_key=other["cache_key"])
    with pytest.raises(TaskContractError, match="does not match"):
        SimTask.from_payload(tampered)


def test_tampered_config_is_rejected():
    payload = task_from_job(_job(batch=8), "h").to_payload()
    payload["config"] = dict(payload["config"], batch_size=16)
    with pytest.raises(TaskContractError, match="does not match"):
        SimTask.from_payload(payload)


def test_tampered_modes_are_rejected():
    payload = task_from_job(_job(), "h").to_payload()
    payload["modes"] = ["overlapped", "sequential", "ideal"]
    with pytest.raises(TaskContractError, match="does not match"):
        SimTask.from_payload(payload)


def test_seed_must_agree_with_config_base_seed():
    payload = task_from_job(_job(seed=1), "h").to_payload()
    payload["seed"] = 2
    with pytest.raises(TaskContractError, match="base_seed"):
        SimTask.from_payload(payload)


def test_wrong_schema_version_is_rejected():
    payload = task_from_job(_job(), "h").to_payload()
    payload["schema"] = TASK_SCHEMA_VERSION + 1
    with pytest.raises(TaskContractError, match="schema"):
        SimTask.from_payload(payload)
    del payload["schema"]
    with pytest.raises(TaskContractError, match="schema"):
        SimTask.from_payload(payload)


@pytest.mark.parametrize(
    "missing", ["code_version", "spec_hash", "cache_key", "config", "modes"]
)
def test_missing_fields_are_rejected(missing):
    payload = task_from_job(_job(), "h").to_payload()
    del payload[missing]
    with pytest.raises(TaskContractError):
        SimTask.from_payload(payload)


@pytest.mark.parametrize("garbage", [None, 7, "task", ["not", "a", "dict"]])
def test_non_mapping_payloads_are_rejected(garbage):
    with pytest.raises(TaskContractError, match="mapping|schema"):
        SimTask.from_payload(garbage)


def test_unbuildable_config_is_rejected():
    payload = task_from_job(_job(), "h").to_payload()
    payload["config"] = {"gpu": "NoSuchGPU-9000", "model": "gpt3-xl"}
    with pytest.raises(TaskContractError):
        SimTask.from_payload(payload)


def test_bad_mode_strings_are_rejected():
    payload = task_from_job(_job(), "h").to_payload()
    payload["modes"] = ["sideways"]
    with pytest.raises(TaskContractError):
        SimTask.from_payload(payload)


def test_empty_modes_are_rejected():
    payload = task_from_job(_job(), "h").to_payload()
    payload["modes"] = []
    with pytest.raises(TaskContractError, match="at least one"):
        SimTask.from_payload(payload)


def test_empty_spec_hash_is_rejected():
    payload = task_from_job(_job(), "h").to_payload()
    payload["spec_hash"] = ""
    with pytest.raises(TaskContractError, match="spec_hash"):
        SimTask.from_payload(payload)


def test_attempt_never_part_of_identity():
    task = task_from_job(_job(), "h")
    retried = SimTask.from_payload(dict(task.to_payload(), attempt=2))
    assert retried == task  # compare=False on attempt
    assert retried.attempt == 2
    with pytest.raises(TaskContractError, match="attempt"):
        SimTask.from_payload(dict(task.to_payload(), attempt=-1))


def test_describe_is_short_and_informative():
    task = task_from_job(_job(), "h")
    text = task.describe()
    assert task.cache_key[:12] in text
    assert "attempt" in text
