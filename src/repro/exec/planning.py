"""Shared planning caches for the execution service.

Building an :class:`~repro.parallel.plan.ExecutionPlan` and a
:class:`~repro.collectives.cost_model.CollectiveCostModel` is pure in
the configuration, yet the monolithic experiment path rebuilt both for
every cell and every repeat. The :class:`Planner` memoizes them across
all cells that agree on the relevant key — in a paper-scale grid most
cells share a node and many share a whole plan (the same model/shape
swept across power caps or seeds), so a sweep touches each distinct
plan exactly once. The same discipline extends one layer down:
:meth:`Planner.prepared_for` caches the per-plan
:class:`~repro.sim.prep.PreparedSim` (validated indexes, jittered
kernel tables, collective costs) so repeat runs and sibling modes of a
cell skip all pure simulator setup.

The cached objects are treated as immutable by the simulator (task
progress is tracked in per-run bookkeeping, never in the plan's
columns), which is what makes sharing them safe.

This module deliberately avoids importing :mod:`repro.core.experiment`
— configs are duck-typed on the ``ExperimentConfig`` fields — so the
core layer can call into it without an import cycle.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple

from repro.collectives.cost_model import CollectiveCostModel
from repro.collectives.library import library_for
from repro.hw.system import NodeSpec, make_node
from repro.parallel.plan import ExecutionPlan
from repro.parallel.strategy import build_plan
from repro.sim.prep import PreparedSim, prepare

#: Hashable key identifying a node: (gpu, num_gpus, calibration).
_NodeKey = Tuple[object, ...]
#: Node key plus every field that shapes the plan.
_PlanKey = Tuple[object, ...]


def _node_key(config) -> _NodeKey:
    return (config.gpu, config.num_gpus, config.calibration)


def _plan_key(config, overlap: bool) -> _PlanKey:
    return _node_key(config) + (
        config.model,
        config.batch_size,
        config.seq_len,
        config.precision,
        config.use_tensor_cores,
        config.activation_checkpointing,
        config.strategy,
        overlap,
        config.microbatch_size,
        config.pipeline_schedule,
    )


class Planner:
    """Memoizing factory for nodes, plans, cost models and prepared sims.

    ``max_plans`` bounds the plan and prepared-sim caches (these are
    the big objects: columns with one slot per task, ~3,000 tasks for
    a quick-grid plan); calibration sweeps mint a distinct key per
    sweep point, so without a bound a long sensitivity session would
    retain every object ever built. Eviction is LRU-on-access: long sweeps revisit their hot
    plans (repeat runs, sibling modes, the power-cap axis) and those
    must survive a parade of one-shot keys.

    Every cache counts hits and builds (:meth:`stats`) so
    ``scenario run --stats`` can show how much setup the caches
    absorbed.
    """

    def __init__(self, max_plans: int = 256) -> None:
        self._nodes: OrderedDict[_NodeKey, NodeSpec] = OrderedDict()
        self._plans: OrderedDict[_PlanKey, ExecutionPlan] = OrderedDict()
        self._cost_models: OrderedDict[
            _NodeKey, CollectiveCostModel
        ] = OrderedDict()
        self._prepared: OrderedDict[tuple, PreparedSim] = OrderedDict()
        self.max_plans = max_plans
        self.node_hits = 0
        self.node_builds = 0
        self.plan_hits = 0
        self.plan_builds = 0
        self.cost_model_hits = 0
        self.cost_model_builds = 0
        self.prepared_hits = 0
        self.prepared_builds = 0
        # Fleet worker threads of one process run jobs concurrently
        # against the process-wide planner, so cache lookup/insert/evict
        # must be atomic (the eviction loop in particular would
        # double-pop under a race). Reentrant: plan_for calls node_for.
        self._lock = threading.RLock()

    def node_for(self, config) -> NodeSpec:
        """The (cached) target system for one experiment config."""
        key = _node_key(config)
        with self._lock:
            node = self._nodes.get(key)
            if node is None:
                node = make_node(
                    config.gpu, config.num_gpus, calibration=config.calibration
                )
                self._nodes[key] = node
                self.node_builds += 1
            else:
                self.node_hits += 1
            return node

    def plan_for(self, config, overlap: bool) -> ExecutionPlan:
        """The (cached) execution plan for one config and overlap flag."""
        key = _plan_key(config, overlap)
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                while len(self._plans) >= self.max_plans:
                    self._plans.popitem(last=False)
                plan = build_plan(
                    self.node_for(config),
                    config.model_spec(),
                    config.shape(),
                    config.strategy,
                    overlap=overlap,
                    microbatch_size=config.microbatch_size,
                    pipeline_schedule=config.pipeline_schedule,
                )
                self._plans[key] = plan
                self.plan_builds += 1
            else:
                # LRU-on-access: a hit re-marks the plan as hot so a
                # long calibration sweep's one-shot keys evict each
                # other, not the plans the sweep keeps returning to.
                self._plans.move_to_end(key)
                self.plan_hits += 1
            return plan

    def cost_model_for(self, config) -> CollectiveCostModel:
        """The (cached) collective cost model for one config's node."""
        key = _node_key(config)
        with self._lock:
            model = self._cost_models.get(key)
            if model is None:
                node = self.node_for(config)
                model = CollectiveCostModel(
                    link=node.link,
                    library=library_for(node.gpu.vendor),
                    calibration=node.calibration,
                    hbm_effective_bandwidth=(
                        node.gpu.memory.effective_bandwidth
                    ),
                )
                self._cost_models[key] = model
                self.cost_model_builds += 1
            else:
                self.cost_model_hits += 1
            return model

    def prepared_for(self, config, overlap: bool, seed: int) -> PreparedSim:
        """The (cached) prepared simulation for one cell's plan.

        Keyed by the plan key plus the sim-relevant config scalars the
        prep layer depends on (seed, jitter sigma, clock cap) — note
        the power cap is *not* in the key, so a power sweep shares one
        prepared sim per plan, and the ideal mode (which only flips
        ``contention_enabled``) shares the overlapped plan's entry.
        """
        key = _plan_key(config, overlap) + (
            seed,
            config.jitter_sigma,
            config.max_clock_frac,
        )
        with self._lock:
            prep = self._prepared.get(key)
            if prep is not None:
                self._prepared.move_to_end(key)
                self.prepared_hits += 1
                return prep
        node = self.node_for(config)  # repro: allow[L402] self-locking method (RLock); holds no planner state unlocked
        plan = self.plan_for(config, overlap)
        cost_model = self.cost_model_for(config)
        prep = prepare(
            node,
            plan,
            seed=seed,
            jitter_sigma=config.jitter_sigma,
            max_clock_frac=config.max_clock_frac,
            cost_model=cost_model,
        )
        with self._lock:
            while len(self._prepared) >= self.max_plans:
                self._prepared.popitem(last=False)
            self._prepared[key] = prep
            self.prepared_builds += 1
            return prep

    def stats(self) -> dict:
        """Hit/build counters and cache sizes for ``--stats`` output."""
        with self._lock:
            return {
                "nodes": {
                    "hits": self.node_hits,
                    "builds": self.node_builds,
                    "size": len(self._nodes),
                },
                "plans": {
                    "hits": self.plan_hits,
                    "builds": self.plan_builds,
                    "size": len(self._plans),
                },
                "cost_models": {
                    "hits": self.cost_model_hits,
                    "builds": self.cost_model_builds,
                    "size": len(self._cost_models),
                },
                "prepared_sims": {
                    "hits": self.prepared_hits,
                    "builds": self.prepared_builds,
                    "size": len(self._prepared),
                },
            }

    def clear(self) -> None:
        """Drop all cached objects (tests and calibration sweeps)."""
        with self._lock:
            self._nodes.clear()
            self._plans.clear()
            self._cost_models.clear()
            self._prepared.clear()


_default_planner: Optional[Planner] = None
_default_planner_lock = threading.Lock()


def default_planner() -> Planner:
    """The process-wide shared planner."""
    global _default_planner
    if _default_planner is None:
        # Locked: concurrent fleet worker threads hitting a cold
        # planner must all end up sharing one instance, or the losing
        # thread quietly memoizes into a private copy.
        with _default_planner_lock:
            if _default_planner is None:
                _default_planner = Planner()
    return _default_planner


def reset_default_planner() -> None:
    """Replace the shared planner with a fresh one."""
    global _default_planner
    _default_planner = None
