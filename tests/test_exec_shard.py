"""ShardPlan partition properties.

The guarantees multi-machine runs lean on, asserted over every
spec-backed registered scenario: shards are pairwise disjoint, their
union is exactly the unsharded compiled job list, and the partition is
a pure function of the job list (stable across re-instantiations and
independent of compile order).
"""

import pytest

from repro.errors import ConfigurationError
from repro.exec.shard import ShardPlan
from repro.scenario.registry import list_scenarios

#: (name, compiled jobs) for every scenario that runs through the job
#: service, at quick fidelity.
SPEC_JOBS = [
    (scenario.name, scenario.spec(quick=True).compile())
    for scenario in list_scenarios()
    if scenario.spec(quick=True) is not None
]


def test_every_spec_backed_scenario_is_covered():
    names = {name for name, _ in SPEC_JOBS}
    assert {"fig4", "fig9", "fig10", "fig11"} <= names


@pytest.mark.parametrize(
    "name,jobs", SPEC_JOBS, ids=[name for name, _ in SPEC_JOBS]
)
@pytest.mark.parametrize("count", (1, 2, 3, 7))
def test_shards_partition_every_scenario(name, jobs, count):
    keys = [job.cache_key() for job in jobs]
    shards = [ShardPlan(i, count).select(jobs) for i in range(count)]
    shard_keys = [
        {job.cache_key() for job in shard} for shard in shards
    ]
    # Pairwise disjoint ...
    for i in range(count):
        for j in range(i + 1, count):
            assert not (shard_keys[i] & shard_keys[j]), (name, i, j)
    # ... and the union is exactly the unsharded compiled list.
    union = set().union(*shard_keys)
    assert union == set(keys), name
    assert sum(len(shard) for shard in shards) == len(jobs), name
    # Round-robin over sorted keys keeps shard sizes within one job.
    sizes = sorted(len(keys) for keys in shard_keys)
    assert sizes[-1] - sizes[0] <= 1, name


@pytest.mark.parametrize(
    "name,jobs", SPEC_JOBS, ids=[name for name, _ in SPEC_JOBS]
)
def test_partition_is_stable_across_instantiations(name, jobs):
    first = [job.cache_key() for job in ShardPlan(0, 3).select(jobs)]
    again = [job.cache_key() for job in ShardPlan(0, 3).select(jobs)]
    assert first == again
    # The assignment is order-independent: reversing the job list
    # changes nothing but the within-shard order.
    reversed_sel = ShardPlan(0, 3).select(list(reversed(jobs)))
    assert {job.cache_key() for job in reversed_sel} == set(first)


def test_shard_preserves_submission_order():
    _, jobs = max(SPEC_JOBS, key=lambda pair: len(pair[1]))
    positions = {job.cache_key(): i for i, job in enumerate(jobs)}
    for shard in (ShardPlan(0, 2), ShardPlan(1, 2)):
        selected = shard.select(jobs)
        indices = [positions[job.cache_key()] for job in selected]
        assert indices == sorted(indices)


def test_single_shard_is_the_identity_partition():
    _, jobs = SPEC_JOBS[0]
    assert ShardPlan(0, 1).select(jobs) == list(jobs)


def test_more_shards_than_jobs_leaves_some_empty():
    _, jobs = min(SPEC_JOBS, key=lambda pair: len(pair[1]))
    count = len(jobs) + 3
    shards = [ShardPlan(i, count).select(jobs) for i in range(count)]
    assert sum(len(shard) for shard in shards) == len(jobs)
    assert any(not shard for shard in shards)


def test_parse_round_trips():
    plan = ShardPlan.parse("2/5")
    assert plan == ShardPlan(index=2, count=5)
    assert plan.describe() == "2/5"


@pytest.mark.parametrize(
    "text", ("", "2", "2/", "/5", "5/2/1", "-1/4", "a/b", "2 of 5")
)
def test_parse_rejects_malformed_specs(text):
    with pytest.raises(ConfigurationError):
        ShardPlan.parse(text)


@pytest.mark.parametrize("index,count", ((0, 0), (2, 2), (3, 2), (-1, 2)))
def test_out_of_range_plans_are_rejected(index, count):
    with pytest.raises(ConfigurationError):
        ShardPlan(index=index, count=count)


def test_assignments_rejects_bad_count():
    with pytest.raises(ConfigurationError):
        ShardPlan.assignments([], 0)
