"""The prepared-simulation layer: everything pure in (plan, node, config).

A grid sweep simulates the same memoized plan hundreds of times —
across power caps, modes and repeat runs — and every simulator
``__init__`` used to rebuild the same validated task/stream indexes,
jittered kernel tables and collective costs from scratch. This module
hoists all of it into one immutable :class:`PreparedSim`, built once
per distinct ``(plan, node, sim-relevant config fields)`` and shared
read-only by both engines:

* **stream and dependency indexes** — per-stream launch order,
  dependency rows and wake-stream sets, read from the plan's columns
  (the plan validated itself once, at build, and its dependency rows
  come from that validation; only the check that needs the node —
  every GPU index in range — runs here);
* **kernel parameter tables** — per-row jittered work / isolated
  durations, per-kernel roofline parameters, and per-op jittered
  collective costs. A plan's kernels went through the process-wide
  hash-consing intern table (:func:`repro.workloads.kernels
  .intern_kernel`) when its builder appended them, so the memo dicts
  inside :class:`~repro.sim.rates.RateModel`,
  :class:`~repro.hw.power.PowerEvaluator` and
  :class:`~repro.collectives.cost_model.CollectiveCostModel` hit
  across grid cells instead of rebuilding per cell. Per-kernel rows
  are keyed on the kernel's physics (:attr:`KernelSpec.physics`, every
  field but the name) and collective costs on what they read (kind,
  payload, participants). The layers of a model differ only in name,
  so the quick grid's 3,396-5,682 named kernels per GPU resolve to
  47-67 rows;
* **hoisted scalars** — memory bandwidths and the calibration factors
  the per-event rate and power math reads.

Safety argument: every field is pure in the cache key, and nothing in
the prepared object is mutated after construction (the engines track
run progress in per-run cursors and arena state, never in these
tables). Sharing therefore cannot change results — the equivalence
and golden suites pin this, and ``tests/test_sim_prep.py`` checks the
isolation property directly.

The module also owns :class:`RunArena`, a small per-thread pool for
the *mutable* per-GPU resident-set dicts, so back-to-back runs reuse
allocations instead of building fresh dicts per cell.
"""

from __future__ import annotations

import math
import threading
import zlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.collectives.cost_model import CollectiveCost, CollectiveCostModel
from repro.collectives.library import library_for
from repro.errors import PlanError
from repro.hw.power import PowerEvaluator
from repro.hw.system import NodeSpec
from repro.sim.rates import RateModel
from repro.sim.task import TaskCategory
from repro.workloads.kernels import KernelSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle at runtime
    from repro.parallel.plan import ExecutionPlan

_COMPUTE = TaskCategory.COMPUTE

#: Process-wide memoized evaluators per GPU spec object. RateModel and
#: PowerEvaluator are pure in the (immutable) spec, so sharing them
#: across simulations cannot change results — it just keeps their
#: roofline/power memo tables warm across runs and cells. Keyed by
#: id() with the spec kept alive in the value. Creation is
#: lock-guarded because fleet worker threads of one process share
#: these; the memo *lookups* inside the shared objects stay unguarded
#: on purpose —
#: every cached value is a pure function of its key, so concurrent
#: writers can only store identical floats.
_SHARED_EVALUATORS: Dict[int, Tuple[object, RateModel, PowerEvaluator]] = {}
_SHARED_EVALUATORS_MAX = 64
_LOCK = threading.Lock()

#: Prepared simulations keyed by identity of the pure inputs plus the
#: sim-relevant config scalars. Objects are kept alive in the value so
#: ids stay unique while cached.
_PREP_CACHE: Dict[tuple, "PreparedSim"] = {}
_PREP_CACHE_MAX = 256
_PREP_STATS = {"hits": 0, "builds": 0}

#: Default cost models per node object (identity-keyed, node kept
#: alive): lets ``Simulator(node, plan, config)`` calls without an
#: explicit cost model share one prepared sim per node.
_DEFAULT_COST_MODELS: Dict[int, Tuple[NodeSpec, CollectiveCostModel]] = {}

#: Jitter factors keyed (seed, sigma) -> {key: factor}; the key is a
#: compute task's id (drawn for the label ``c{id}``) or a collective's
#: label ``k{op.key}``. The factor is pure in (label, seed, sigma), so
#: grid cells that share a task layout reuse each other's draws. Both
#: levels are capped: the table holds at most
#: ``_SHARED_EVALUATORS_MAX`` (seed, sigma) keys and each inner dict
#: at most ``_JITTER_MEMO_MAX`` draws. A benign race (two threads
#: computing the same label) converges to the same deterministic value.
_JITTER_MEMO: Dict[Tuple[int, float], Dict[object, float]] = {}
_JITTER_MEMO_MAX = 1 << 20


def evaluators_for(gpu) -> Tuple[RateModel, PowerEvaluator]:
    """The shared (RateModel, PowerEvaluator) pair for one GPU spec."""
    with _LOCK:
        entry = _SHARED_EVALUATORS.get(id(gpu))
        if entry is None or entry[0] is not gpu:
            if len(_SHARED_EVALUATORS) >= _SHARED_EVALUATORS_MAX:
                _SHARED_EVALUATORS.clear()
            entry = (
                gpu,
                RateModel(gpu),
                PowerEvaluator(gpu.tdp_w, gpu.power),
            )
            _SHARED_EVALUATORS[id(gpu)] = entry
        return entry[1], entry[2]


def default_cost_model(node: NodeSpec) -> CollectiveCostModel:
    """Memoized default cost model per node object (identity-keyed)."""
    with _LOCK:
        entry = _DEFAULT_COST_MODELS.get(id(node))
        if entry is not None and entry[0] is node:
            return entry[1]
    model = CollectiveCostModel(
        link=node.link,
        library=library_for(node.gpu.vendor),
        calibration=node.calibration,
        hbm_effective_bandwidth=node.gpu.memory.effective_bandwidth,
    )
    with _LOCK:
        if len(_DEFAULT_COST_MODELS) >= _SHARED_EVALUATORS_MAX:
            _DEFAULT_COST_MODELS.clear()
        return _DEFAULT_COST_MODELS.setdefault(id(node), (node, model))[1]


def reset_prepared() -> None:
    """Drop every process-wide prep cache and zero the counters.

    Results never depend on them (every cached value is pure in its
    key), but *timings* do — the engine benchmark calls this between
    engines so neither inherits a cache the other warmed.
    """
    with _LOCK:
        _SHARED_EVALUATORS.clear()
        _PREP_CACHE.clear()
        _DEFAULT_COST_MODELS.clear()
        _JITTER_MEMO.clear()
        _PREP_STATS["hits"] = 0
        _PREP_STATS["builds"] = 0


def prep_stats() -> dict:
    """Prep-cache hit/build counters plus current size (for benches)."""
    with _LOCK:
        return {
            "hits": _PREP_STATS["hits"],
            "builds": _PREP_STATS["builds"],
            "size": len(_PREP_CACHE),
        }


def _stable_unit_uniform(key: str, seed: int) -> float:
    """Deterministic uniform in (0, 1) from a string key and seed."""
    h = zlib.crc32(key.encode("utf-8")) ^ (seed * 0x9E3779B9 & 0xFFFFFFFF)
    h = (h * 2654435761) & 0xFFFFFFFF
    return (h + 0.5) / 4294967296.0


def _lognormal_factor(key: str, seed: int, sigma: float) -> float:
    """Mean-1 lognormal jitter factor, deterministic in (key, seed)."""
    if sigma <= 0:
        return 1.0
    u = _stable_unit_uniform(key, seed)
    # Inverse-CDF of the standard normal via Acklam's approximation is
    # overkill; a logistic approximation is adequate for jitter.
    z = math.log(u / (1.0 - u)) / 1.702
    return math.exp(sigma * z - 0.5 * sigma * sigma)


@dataclass(frozen=True)
class PreparedSim:
    """Everything a simulator needs that is pure in (plan, node, config).

    Immutable by convention and construction: the contained tables are
    never written after :func:`prepare` returns (the engines track all
    run progress in per-run cursors), so one instance is safely shared
    by any number of concurrent simulations.

    Per-task data is indexed by plan *row* and read from the plan's
    columns or from the tuples here; the prepared sim holds ints,
    floats, strings and tuples of them, and no per-task object.
    """

    node: NodeSpec
    gpu: object
    cost_model: CollectiveCostModel
    #: The plan the tables index (its identity is part of the cache
    #: key).
    plan: ExecutionPlan
    seed: int
    jitter_sigma: float
    max_clock_frac: float
    num_gpus: int
    #: Per stream (plan ``stream_keys`` order): its rows in program
    #: order, and its name.
    streams: Tuple[Tuple[int, ...], ...]
    stream_names: Tuple[str, ...]
    #: Per row: dependency rows, and the streams whose heads its
    #: completion may unblock.
    deps: Tuple[Tuple[int, ...], ...]
    wake_streams: Tuple[Tuple[int, ...], ...]
    #: Per row (None for collective ranks): jittered FLOPs and
    #: isolated duration.
    work: Tuple[Optional[float], ...]
    isolated: Tuple[Optional[float], ...]
    #: Per plan kernel: the interned spec and its roofline parameters
    #: (peak x efficiency, arithmetic intensity).
    kernels: Tuple[KernelSpec, ...]
    peak_eff: Tuple[float, ...]
    ai: Tuple[float, ...]
    #: Per plan op: the jittered collective cost.
    comm_cost: Tuple[CollectiveCost, ...]
    #: Shared memoizing evaluators for this GPU spec.
    rates: RateModel
    power_eval: PowerEvaluator
    idle_power_w: float
    #: Hoisted node/GPU invariants for the hot loops.
    hbm_eff: float
    hbm_bw: float
    spin_scale: float
    interference: float
    stall_frac: float


def _build_indexes(node: NodeSpec, plan: ExecutionPlan):
    """Per-stream row lists, dependency rows and wake sets.

    Checks only what needs the node (every GPU index in range) and
    what an unvalidated, ingested row set can get wrong (duplicate
    ids, unknown dependencies, via :meth:`ExecutionPlan.dep_rows`);
    :meth:`ExecutionPlan.validate` covers the rest.
    """
    gpus = plan.gpus
    if not gpus:
        raise PlanError("no tasks to simulate")
    num_gpus = node.num_gpus
    if max(gpus) >= num_gpus:
        row = next(r for r, gpu in enumerate(gpus) if gpu >= num_gpus)
        raise PlanError(
            f"task {plan.labels[row]}: gpu {gpus[row]} out of range for "
            f"{num_gpus}-GPU node"
        )
    deps = plan.dep_rows()
    stream_ids = plan.stream_ids
    stream_rows: List[List[int]] = [[] for _ in plan.stream_keys]
    for row, sid in enumerate(stream_ids):
        stream_rows[sid].append(row)
    # A row wakes its own stream (its successor becomes the head) plus
    # its dependents' streams. The consumer only set-unions these
    # tuples, so member order is free; rows without dependents share
    # one tuple per stream.
    own = [(sid,) for sid in range(len(stream_rows))]
    wake = [own[sid] for sid in stream_ids]
    dependents: Dict[int, List[int]] = {}
    for row, row_deps in enumerate(deps):
        for dep in row_deps:
            dependents.setdefault(dep, []).append(row)
    for row, waiters in dependents.items():
        mine = stream_ids[row]
        if len(waiters) == 1:
            other = stream_ids[waiters[0]]
            if other != mine:
                wake[row] = (mine, other)
        else:
            woken = {mine}
            woken.update(stream_ids[w] for w in waiters)
            wake[row] = tuple(woken)
    return (
        tuple(map(tuple, stream_rows)),
        tuple(deps),
        tuple(wake),
    )


def _build_tables(
    plan: ExecutionPlan,
    rates: RateModel,
    cost_model: CollectiveCostModel,
    seed: int,
    sigma: float,
):
    """Jittered per-row kernel columns and per-op collective costs.

    Pure in the arguments; identical arithmetic (and jitter draws) to
    the tables the engines used to build inline. A compute row's
    jitter is drawn for the label ``c{task_id}``, a collective's for
    ``k{op.key}``.
    """
    # Kernel rows are keyed on kernel physics, so every layer of a
    # model, in every plan that shares its shapes, hits one entry.
    kernels = tuple(plan.kernels)
    kernel_rows = [rates.kernel_row(kernel) for kernel in kernels]
    jittered = sigma > 0
    if jittered:
        with _LOCK:
            factor_memo = _JITTER_MEMO.get((seed, sigma))
            if factor_memo is None:
                if len(_JITTER_MEMO) >= _SHARED_EVALUATORS_MAX:
                    _JITTER_MEMO.clear()
                factor_memo = _JITTER_MEMO[(seed, sigma)] = {}
            elif len(factor_memo) > _JITTER_MEMO_MAX:
                factor_memo.clear()
    else:
        factor_memo = {}
    memo_get = factor_memo.get
    n = plan.num_tasks
    work: List[Optional[float]] = [None] * n
    isolated: List[Optional[float]] = [None] * n
    refs = plan.refs
    task_ids = plan.task_ids
    for row, category in enumerate(plan.categories):
        if category is not _COMPUTE:
            continue
        ref = refs[row]
        iso_base = kernel_rows[ref][2]
        flops = kernels[ref].flops
        if jittered:
            # The memo keys compute draws by task id (an int never
            # equals a collective's string label).
            tid = task_ids[row]
            factor = memo_get(tid)
            if factor is None:
                factor = _lognormal_factor(f"c{tid}", seed, sigma)
                factor_memo[tid] = factor
            isolated[row] = iso_base * factor
            work[row] = flops * factor
        else:
            isolated[row] = iso_base
            work[row] = flops
    comm_cost: List[CollectiveCost] = []
    for op in plan.ops:
        cost = cost_model.cost(op)
        if jittered:
            label = f"k{op.key}"
            factor = memo_get(label)
            if factor is None:
                factor = _lognormal_factor(label, seed, sigma)
                factor_memo[label] = factor
        else:
            factor = 1.0
        if factor != 1.0:
            # Jitter stretches the duration; the same bytes over a
            # longer window means proportionally less HBM pressure.
            cost = replace(
                cost,
                duration_s=cost.duration_s * factor,
                hbm_bytes_per_s=cost.hbm_bytes_per_s / factor,
            )
        comm_cost.append(cost)
    return (
        kernels,
        tuple(row[0] for row in kernel_rows),
        tuple(row[1] for row in kernel_rows),
        tuple(work),
        tuple(isolated),
        tuple(comm_cost),
    )


def prepare(
    node: NodeSpec,
    plan: ExecutionPlan,
    *,
    seed: int = 0,
    jitter_sigma: float = 0.0,
    max_clock_frac: float = 1.0,
    cost_model: Optional[CollectiveCostModel] = None,
) -> PreparedSim:
    """Build (or fetch) the :class:`PreparedSim` for one plan+node+config.

    Cached process-wide, keyed by the identity of the pure inputs
    (plan, GPU spec, calibration, cost model) plus the sim-relevant
    config scalars.
    """
    if cost_model is None:
        cost_model = default_cost_model(node)
    gpu = node.gpu
    calibration = node.calibration
    key = (
        id(plan),
        id(gpu),
        id(cost_model),
        id(calibration),
        seed,
        jitter_sigma,
        max_clock_frac,
        node.num_gpus,
    )
    with _LOCK:
        prep = _PREP_CACHE.get(key)
        if (
            prep is not None
            and prep.plan is plan
            and prep.gpu is gpu
            and prep.cost_model is cost_model
            and prep.node.calibration is calibration
        ):
            _PREP_STATS["hits"] += 1
            return prep

    rates, power_eval = evaluators_for(gpu)
    streams, deps, wake_streams = _build_indexes(node, plan)
    kernels, peak_eff, ai, work, isolated, comm_cost = _build_tables(
        plan, rates, cost_model, seed, jitter_sigma
    )
    prep = PreparedSim(
        node=node,
        gpu=gpu,
        cost_model=cost_model,
        plan=plan,
        seed=seed,
        jitter_sigma=jitter_sigma,
        max_clock_frac=max_clock_frac,
        num_gpus=node.num_gpus,
        streams=streams,
        stream_names=tuple(name for _, name in plan.stream_keys),
        deps=deps,
        wake_streams=wake_streams,
        work=work,
        isolated=isolated,
        kernels=kernels,
        peak_eff=peak_eff,
        ai=ai,
        comm_cost=comm_cost,
        rates=rates,
        power_eval=power_eval,
        idle_power_w=power_eval.idle_power(),
        hbm_eff=gpu.memory.effective_bandwidth,
        hbm_bw=gpu.memory.bandwidth_bytes_per_s,
        spin_scale=calibration.spin_sm_scale,
        interference=calibration.interference_factor,
        stall_frac=calibration.stall_power_frac,
    )
    with _LOCK:
        _PREP_STATS["builds"] += 1
        if len(_PREP_CACHE) >= _PREP_CACHE_MAX:
            _PREP_CACHE.clear()
        return _PREP_CACHE.setdefault(key, prep)


# ---------------------------------------------------------------------------
# Per-run mutable-state arena.
# ---------------------------------------------------------------------------


class RunArena:
    """Per-thread pool of the engines' per-run mutable containers.

    A grid sweep constructs thousands of simulators back to back; the
    per-GPU resident-set dicts are identical in shape every time. The
    arena hands them out cleared and takes them back at ``_finalize``,
    so steady-state runs allocate none of them.

    Thread-local by construction — two simulators on different threads
    never share a pooled object, and a simulator returns state only
    after its run completed (every container is empty or fully
    reinitialized on the next acquire, so reuse is invisible to
    results).
    """

    _MAX_POOL = 4

    def __init__(self) -> None:
        self._sets: Dict[int, List[tuple]] = {}

    def acquire_sets(self, num_gpus: int):
        """Three per-GPU dict lists: running_on, active_on, spinning_on."""
        pool = self._sets.get(num_gpus)
        if pool:
            return pool.pop()
        return (
            [{} for _ in range(num_gpus)],
            [{} for _ in range(num_gpus)],
            [{} for _ in range(num_gpus)],
        )

    def release_sets(self, num_gpus: int, triple) -> None:
        pool = self._sets.setdefault(num_gpus, [])
        if len(pool) >= self._MAX_POOL:
            return
        for dicts in triple:
            for d in dicts:
                d.clear()
        pool.append(triple)


_ARENAS = threading.local()


def run_arena() -> RunArena:
    """The calling thread's arena (created on first use)."""
    arena = getattr(_ARENAS, "arena", None)
    if arena is None:
        arena = RunArena()
        _ARENAS.arena = arena
    return arena
