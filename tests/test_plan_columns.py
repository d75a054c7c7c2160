"""Quick-grid plans: pinned content and a bounded object footprint.

Every feasible cell of the quick Figs. 4-6 grid builds its overlapped
and sequential plans, plus their prepared simulations, through one
fresh planner. Two properties of that build are pinned:

* **content** — the plans' names, metadata and every task row read
  through ``plan.tasks`` hash to one recorded sha256, so a reordered,
  relabelled or rewired row fails here before any golden snapshot
  does;
* **footprint** — the build adds fewer than 40,000 GC-tracked objects:
  plans and prepared sims keep per-task data in columns, not in one
  Python object (and one dependency set) per task.
"""

import gc
import hashlib
import json

import pytest

from repro.core.feasibility import check_feasibility
from repro.exec.planning import Planner
from repro.harness.figures.grid import grid_spec
from repro.sim.engine import reset_shared_evaluators
from repro.sim.task import CommTask

#: sha256 over every quick-grid plan's rows (see ``_plan_digest``).
QUICK_GRID_PLANS_SHA256 = (
    "29b4718338ab991ce7740e1f510babba08c09aee7b383e4b13c8b2ef0cceb973"
)

#: Upper bound on the GC-tracked objects one cold build of the quick
#: grid's plans and prepared sims may add (76 plans, ~218k task rows).
MAX_TRACKED_OBJECTS = 40_000


def _feasible_configs():
    probe = Planner()
    configs = []
    for job in grid_spec(quick=True).compile():
        config = job.config
        report = check_feasibility(
            probe.node_for(config),
            config.model_spec(),
            config.shape(),
            config.strategy,
            config.microbatch_size,
        )
        if report.fits:
            configs.append(config)
    return configs


@pytest.fixture(scope="module")
def quick_grid_build():
    """(plans, tracked objects added) for one cold quick-grid build."""
    configs = _feasible_configs()
    reset_shared_evaluators()
    gc.collect()
    before = len(gc.get_objects())
    planner = Planner()
    plans = []
    for config in configs:
        for overlap in (True, False):
            plans.append(planner.plan_for(config, overlap))
            planner.prepared_for(config, overlap, config.base_seed)
    gc.collect()
    added = len(gc.get_objects()) - before
    return plans, added


def _task_row(task) -> list:
    row = [
        task.task_id,
        task.gpu,
        task.stream,
        task.label,
        task.phase,
        task.category.value,
        sorted(task.deps),
    ]
    if isinstance(task, CommTask):
        op = task.op
        row += [
            op.key,
            op.kind.value,
            op.payload_bytes,
            list(op.participants),
        ]
    else:
        kernel = task.kernel
        row += [
            kernel.name,
            kernel.kind.value,
            kernel.flops,
            kernel.bytes_moved,
            kernel.path.precision.value,
            kernel.path.datapath.value,
            kernel.efficiency,
        ]
    return row


def _plan_digest(plans) -> str:
    digest = hashlib.sha256()
    for plan in plans:
        digest.update(plan.name.encode())
        digest.update(json.dumps(plan.metadata, sort_keys=True).encode())
        for task in plan.tasks:
            digest.update(json.dumps(_task_row(task)).encode())
    return digest.hexdigest()


def test_quick_grid_plan_content_is_pinned(quick_grid_build):
    plans, _ = quick_grid_build
    assert len(plans) == 76
    assert sum(plan.num_tasks for plan in plans) == 218_036
    assert _plan_digest(plans) == QUICK_GRID_PLANS_SHA256


def test_quick_grid_build_adds_few_tracked_objects(quick_grid_build):
    _, added = quick_grid_build
    assert added < MAX_TRACKED_OBJECTS, (
        f"building the quick grid's plans and prepared sims added "
        f"{added} GC-tracked objects"
    )
