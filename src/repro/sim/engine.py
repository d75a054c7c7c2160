"""The discrete-event simulation engine.

Executes an :class:`~repro.parallel.plan.ExecutionPlan` (per-GPU stream
programs, read column-wise by plan row) on a
:class:`~repro.hw.system.NodeSpec`. Tasks are fluids:
each holds remaining work and a current rate; events bank progress,
apply the state change, launch newly unblocked stream heads, update
rates from the contention model and (re)schedule finish events.
Governor ticks close the DVFS loop against instantaneous power.

Two engines share that machinery and produce **bit-for-bit identical**
results (the equivalence suite pins this):

* :class:`Simulator` — the full-recompute reference path: every event
  recomputes every instance rate, every per-GPU contention aggregate
  and every GPU's power. O(events x tasks); kept as the correctness
  oracle and perf baseline (``SimConfig(reference_engine=True)``).
* :class:`IncrementalSimulator` — the default: an event dirties only
  the GPUs and collective instances whose inputs actually changed
  (shared SM/HBM/link contention, clock moves, launches/finishes), and
  only those are re-evaluated. Task progress banks lazily by replaying
  the global time-step log, which reproduces the reference engine's
  per-step float arithmetic exactly; per-GPU float accumulations
  iterate memberships in creation order for the same reason. Stale
  finish events are tombstoned in the queue (lazy invalidation)
  instead of eagerly rescheduled. Its drain is fused: one pass per
  dirty GPU derives the kernel rates, the free-running utilisation
  and the power terms in a single loop and evaluates the board power
  formula directly, and the event loop runs its hot handlers inline.
  The fused code keeps the reference's float operations, their order
  and their summation primitive (``sum()`` vs ``+=``), which is what
  makes it exact rather than close.

There is no approximate engine: the paper's findings are few-percent
differences between simulated modes, so every production run is
bit-exact to the oracle.

Invariant per-task quantities — jittered work and isolated durations,
collective cost-model lookups, jitter factors — are hoisted into the
prepared-simulation tables (:mod:`repro.sim.prep`), built once per
plan and config. The reference engine memoizes power
evaluations and free-running utilisations on the state they depend on
(see :class:`~repro.hw.power.PowerEvaluator` /
:class:`~repro.sim.rates.RateModel`); the incremental engine computes
both inline, because under a power cap the clock moves on most
updates and those memos mostly miss.
"""

from __future__ import annotations

import gc
import operator
from dataclasses import dataclass
from heapq import heappop
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.collectives.cost_model import CollectiveCostModel
from repro.errors import DeadlockError, PlanError, SimulationError
from repro.hw.datapath import Datapath
from repro.hw.dvfs import FrequencyGovernor, PowerLimitPolicy
from repro.hw.system import NodeSpec
from repro.sim.collective_sync import CollectiveInstance
from repro.sim.config import SimConfig
from repro.sim.events import _COMPACT_MIN_SIZE, EventKind, EventQueue
from repro.sim.prep import PreparedSim, prepare, reset_prepared, run_arena
from repro.sim.rates import RateModel
from repro.sim.result import PowerSegment, SimulationResult, TaskRecord
from repro.sim.task import TaskCategory
from repro.workloads.kernels import KernelSpec, reset_kernel_intern
from repro.workloads.transformer import clear_layer_memo

if TYPE_CHECKING:  # pragma: no cover - import cycle at runtime
    from repro.parallel.plan import ExecutionPlan

#: Floors preventing full starvation (real kernels always trickle).
_MIN_SM_FRACTION = 0.05
_MIN_HBM_FRACTION = 0.02
#: Collectives can never pin more than this much of the GPU.
_MAX_COMM_SM = 0.45
#: Vector-pipe utilisation per unit of collective SM share: channel
#: copy loops of an *active* collective draw most of their pipes'
#: power; busy-polling (spinning) channels draw less and move no data.
_COMM_VECTOR_UTIL = 0.8
_SPIN_VECTOR_UTIL = 0.4

#: (start_s, task_id) over TaskRecord's tuple layout — the result-sort
#: key, evaluated once per record.
_RECORD_SORT_KEY = operator.itemgetter(6, 0)

#: Hot-loop aliases (module globals, read without attribute walks).
_INF = float("inf")
_TASK_FINISH = EventKind.TASK_FINISH
_COLLECTIVE_FINISH = EventKind.COLLECTIVE_FINISH
_GOVERNOR_TICK = EventKind.GOVERNOR_TICK
_PERTURB_BEGIN = EventKind.PERTURB_BEGIN
_PERTURB_END = EventKind.PERTURB_END
_COMPUTE = TaskCategory.COMPUTE
_COMM = TaskCategory.COMM


def reset_shared_evaluators() -> None:
    """Drop the process-wide prep-layer memos (evaluators, prepared
    sims, jitter factors, the kernel intern table and the layer
    kernel memo).

    Results never depend on them (every cached value is pure in its
    key), but *timings* do — the engine benchmark calls this between
    engines so neither inherits a cache the other warmed.
    """
    reset_prepared()
    reset_kernel_intern()
    clear_layer_memo()


@dataclass(slots=True)
class _RunningCompute:
    """Bookkeeping for an in-flight compute task.

    ``slots=True``: the engine touches several fields per entry on
    every rate/power re-evaluation, and slot access skips the per
    instance ``__dict__`` lookup.
    """

    kernel: KernelSpec
    work_remaining: float
    rate: float
    isolated_s: float
    started_at: float
    #: Pre-resolved kernel roofline parameters (peak x efficiency and
    #: arithmetic intensity) so the per-event rate/power math never
    #: hashes the kernel table.
    peak_eff: float = 0.0
    ai: float = float("inf")
    #: The task's plan row: the finish event's payload and the index
    #: into the plan's columns.
    row: int = -1
    #: Whether a finish event has ever been scheduled (the first rate
    #: assignment must push even if the placeholder rate matches).
    scheduled: bool = False
    #: Index into the engine's time-step log up to which progress has
    #: been banked (incremental engine only).
    bank_idx: int = 0


@dataclass
class EngineStats:
    """Hot-path counters for benchmarking and diagnostics."""

    events: int = 0
    stale_events: int = 0
    gpu_rate_passes: int = 0
    instance_rate_passes: int = 0
    #: Perturbation windows opened/closed (one count per applied
    #: PERTURB_BEGIN/PERTURB_END event).
    perturb_events: int = 0
    #: Task finishes that took the incremental engine's same-stream
    #: hand-off (see :meth:`IncrementalSimulator._run_loop`); always 0
    #: under the reference engine.
    handoffs: int = 0


class Simulator:
    """Simulate one program (e.g. one training iteration) on a node.

    This base class is the *reference* engine: every event triggers a
    full recompute of all rates, aggregates and power. Subclasses hook
    the collective and clock transitions (instance created, rank
    posted, instance started/finished, task done, clock change) to
    maintain incremental indices; the hooks are no-ops here.
    """

    def __init__(
        self,
        node: NodeSpec,
        plan: ExecutionPlan,
        config: Optional[SimConfig] = None,
        cost_model: Optional[CollectiveCostModel] = None,
        prepared: Optional[PreparedSim] = None,
    ):
        if config is None:
            config = SimConfig()
        self.node = node
        self.config = config
        self.gpu = node.gpu
        # Everything pure in (plan, node, sim-relevant config) lives in
        # the prepared layer — built (or fetched from the process-wide
        # cache) here, or handed in pre-built by the planner.
        if prepared is None:
            prepared = prepare(
                node,
                plan,
                seed=config.seed,
                jitter_sigma=config.jitter_sigma,
                max_clock_frac=config.max_clock_frac,
                cost_model=cost_model,
            )
        elif (
            prepared.plan is not plan
            or prepared.gpu is not node.gpu
            or (cost_model is not None and prepared.cost_model is not cost_model)
            or prepared.seed != config.seed
            or prepared.jitter_sigma != config.jitter_sigma
            or prepared.max_clock_frac != config.max_clock_frac
            or prepared.num_gpus != node.num_gpus
            # By value: the tables copy calibration factors and the
            # collective costs derive from them.
            or prepared.node.calibration != node.calibration
        ):
            raise PlanError(
                "prepared simulation does not match (node, plan, config)"
            )
        self.prepared = prepared
        self.cost_model = prepared.cost_model
        self.stats = EngineStats()

        # Read-only columns and indexes, by plan row and stream index,
        # from the plan and the prep layer; only the stream cursors and
        # the completion set (of rows) are per-run.
        plan = prepared.plan
        self.plan = plan
        self._num_tasks = plan.num_tasks
        self._gpus = plan.gpus
        self._stream_of = plan.stream_ids
        self._refs = plan.refs
        self._categories = plan.categories
        self.streams: Tuple[Tuple[int, ...], ...] = prepared.streams
        self._stream_pos: List[int] = [0] * len(prepared.streams)
        self._deps = prepared.deps
        self.done: set = set()

        self.time = 0.0
        self.queue = EventQueue()
        self.running: Dict[int, _RunningCompute] = {}
        #: Per-clock free-running utilisation of each running kernel,
        #: by plan row, resolved through the shared RateModel memo on
        #: first use (values are identical; this only skips the
        #: kernel-keyed hashing on the power hot path). Reference
        #: engine only: the incremental engine's fused pass computes
        #: the value inline.
        self._free_util: Dict[int, Dict[float, float]] = {}
        self.instances: Dict[str, CollectiveInstance] = {}
        self._inst_seq = 0
        self._waiting: set = set()  # comm tasks posted but not started
        self._comm_started: set = set()

        # Memoized pure evaluators (shared per GPU spec) + invariant
        # tables, all read-only from the prep layer.
        self._rates = prepared.rates
        self._power_eval = prepared.power_eval
        self._work = prepared.work
        self._isolated = prepared.isolated
        self._kernels = prepared.kernels
        self._peak_eff = prepared.peak_eff
        self._ai = prepared.ai
        self._comm_cost = prepared.comm_cost
        # Hot-path invariants hoisted out of attribute chains.
        self._hbm_eff = prepared.hbm_eff
        self._hbm_bw = prepared.hbm_bw
        self._spin_scale = prepared.spin_scale
        self._interference = prepared.interference
        self._stall_frac = prepared.stall_frac

        self._clock: Dict[int, float] = {
            g: config.max_clock_frac for g in range(node.num_gpus)
        }
        self._governors: Dict[int, FrequencyGovernor] = {}
        if config.governor_enabled:
            limit = config.power_limit_w or node.gpu.tdp_w
            policy = PowerLimitPolicy(
                limit_w=limit,
                control_period_s=config.governor_period_s,
                max_clock_frac=config.max_clock_frac,
            )
            for g in range(node.num_gpus):
                self._governors[g] = FrequencyGovernor(
                    policy, min_clock_frac=node.gpu.min_clock_frac
                )

        self._tick_pending: Dict[int, bool] = {
            g: False for g in range(node.num_gpus)
        }
        #: Count of GPUs with a tick outstanding (fast-path exit for
        #: the per-event _ensure_ticks sweep).
        self._ticks_outstanding = 0
        self._power_now: Dict[int, float] = {}
        #: Open power segment per GPU as a plain tuple
        #: (start_s, power_w, compute_active, comm_active, clock_frac);
        #: materialized into a PowerSegment only when it closes.
        self._segment_open: Dict[
            int, Tuple[float, float, bool, bool, float]
        ] = {}
        self._segments: Dict[int, List[PowerSegment]] = {
            g: [] for g in range(node.num_gpus)
        }
        self.records: List[TaskRecord] = []
        self._min_clock_seen = config.max_clock_frac
        self._init_perturbations()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def _init_perturbations(self) -> None:
        """Arm the degradation injector (``sim/perturb.py``).

        Each :class:`~repro.sim.perturb.PerturbationSpec` becomes a
        ``PERTURB_BEGIN`` (and, for finite windows, ``PERTURB_END``)
        event in the ordinary queue, keyed by its index in the config
        tuple — scheduled here, before any task event exists, so the
        insertion order (and therefore every same-time tie-break) is
        identical in both engines. The per-GPU multiplier arrays start
        at identity; :meth:`_apply_perturb` rebuilds them from the
        active-perturbation set on every boundary.
        """
        perturbs = self.config.perturbations
        num_gpus = self.node.num_gpus
        self._perturbs = perturbs
        self._perturbed = bool(perturbs)
        self._perturb_rate: List[float] = [1.0] * num_gpus
        self._perturb_hbm: List[float] = [1.0] * num_gpus
        self._perturb_link: List[float] = [1.0] * num_gpus
        self._perturb_cap: List[float] = (
            [self.config.max_clock_frac] * num_gpus
        )
        self._perturb_targets: List[Tuple[int, ...]] = []
        self._perturb_target_sets: List[frozenset] = []
        self._active_perturbs: set = set()
        if not perturbs:
            return
        inf = float("inf")
        for index, spec in enumerate(perturbs):
            gpus = spec.target_gpus(num_gpus)
            self._perturb_targets.append(gpus)
            self._perturb_target_sets.append(frozenset(gpus))
            if not gpus:
                continue  # inert on this node width
            self.queue.schedule(spec.start_s, EventKind.PERTURB_BEGIN, index)
            end = spec.end_s
            if end < inf:
                self.queue.schedule(end, EventKind.PERTURB_END, index)

    # ------------------------------------------------------------------
    # incremental hooks (no-ops in the reference engine)
    # ------------------------------------------------------------------

    def _on_instance_created(self, inst: CollectiveInstance) -> None:
        pass

    def _on_comm_posted(self, gpu: int, inst: CollectiveInstance) -> None:
        pass

    def _on_instance_started(self, inst: CollectiveInstance) -> None:
        pass

    def _on_collective_finished(self, inst: CollectiveInstance) -> None:
        pass

    def _on_task_done(self, row: int) -> None:
        pass

    def _on_clock_changed(self, gpu_index: int) -> None:
        pass

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute all tasks; returns the populated result."""
        self._open_segments()
        # The drain allocates no reference cycles, so generational
        # collection scans during it are pure overhead. Restore the
        # caller's setting even on simulation errors.
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            self._run_loop()
        finally:
            if was_enabled:
                gc.enable()
        return self._finalize()

    def _run_loop(self) -> None:
        total = self._num_tasks
        self._try_launch()
        self._recompute()
        self._ensure_ticks()
        while len(self.done) < total:
            event = self.queue.pop_live()
            if event is None:
                raise DeadlockError(self._deadlock_report())
            if event.time > self.config.max_sim_time_s:
                raise SimulationError(
                    f"simulation exceeded {self.config.max_sim_time_s}s"
                )
            self.stats.events += 1
            self._advance_to(event.time)
            if event.kind is EventKind.TASK_FINISH:
                self._finish_compute(event.payload)
            elif event.kind is EventKind.COLLECTIVE_FINISH:
                self._finish_collective(event.payload)
            elif event.kind is EventKind.GOVERNOR_TICK:
                self._governor_tick(event.payload)
            elif event.kind is EventKind.PERTURB_BEGIN:
                self._apply_perturb(event.payload, True)
            elif event.kind is EventKind.PERTURB_END:
                self._apply_perturb(event.payload, False)
            if len(self.done) >= total:
                break
            self._try_launch()
            self._recompute()
            self._ensure_ticks()

    def _finalize(self) -> SimulationResult:
        """Close out the run: stats, segments, validated result."""
        self.stats.stale_events = self.queue.stale_dropped
        self._close_segments()
        result = SimulationResult(
            end_time_s=self.time,
            # (start_s, task_id) sort key; itemgetter over the record
            # namedtuple's slots runs in C, and this touches every
            # record of the run.
            records=sorted(self.records, key=_RECORD_SORT_KEY),
            power_segments=self._segments if self.config.trace_power else {},
            num_gpus=self.node.num_gpus,
            min_clock_frac_seen=self._min_clock_seen,
        )
        result.validate()
        return result

    def _advance_to(self, t: float) -> None:
        if t < self.time - 1e-12:
            raise SimulationError("event time went backwards")
        t = max(t, self.time)
        dt = t - self.time
        if dt > 0:
            for entry in self.running.values():
                entry.work_remaining = max(
                    0.0, entry.work_remaining - entry.rate * dt
                )
            for inst in self.instances.values():
                inst.bank_progress(t)
        self.time = t

    # ------------------------------------------------------------------
    # launching
    # ------------------------------------------------------------------

    def _head(self, sid: int) -> Optional[int]:
        order = self.streams[sid]
        pos = self._stream_pos[sid]
        if pos >= len(order):
            return None
        return order[pos]

    def _pop_head(self, sid: int, expected: int) -> None:
        # _head, inlined (called once per task completion).
        order = self.streams[sid]
        pos = self._stream_pos[sid]
        head = order[pos] if pos < len(order) else None
        if head != expected:
            ids = self.plan.task_ids
            raise SimulationError(
                f"stream {self.plan.stream_keys[sid]}: completing task "
                f"{ids[expected]} but head is "
                f"{None if head is None else ids[head]}"
            )
        self._stream_pos[sid] = pos + 1

    def _maybe_launch_head(self, sid: int) -> bool:
        """Launch/post the head of one stream if it is runnable."""
        # _head, inlined (this runs for every candidate stream on
        # every completion).
        order = self.streams[sid]
        pos = self._stream_pos[sid]
        if pos >= len(order):
            return False
        row = order[pos]
        if row in self.running or row in self._waiting:
            return False
        if row in self._comm_started:
            return False
        if not self.done.issuperset(self._deps[row]):
            return False
        if self._categories[row] is _COMPUTE:
            self._launch_compute(row)
        else:
            self._post_comm(row)
        return True

    def _try_launch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for sid in range(len(self.streams)):
                if self._maybe_launch_head(sid):
                    progressed = True

    def _launch_compute(self, row: int) -> None:
        ref = self._refs[row]
        # Positional: rate=1.0 is a placeholder the first recompute
        # overwrites.
        entry = _RunningCompute(
            self._kernels[ref],
            self._work[row],
            1.0,
            self._isolated[row],
            self.time,
            self._peak_eff[ref],
            self._ai[ref],
            row,
        )
        self.running[row] = entry
        self._free_util[row] = {}

    def _post_comm(self, row: int) -> None:
        ref = self._refs[row]
        op = self.plan.ops[ref]
        inst = self.instances.get(op.key)
        if inst is None:
            inst = CollectiveInstance(
                op=op, cost=self._comm_cost[ref], seq=self._inst_seq
            )
            self._inst_seq += 1
            self.instances[op.key] = inst
            self._on_instance_created(inst)
        gpu = self._gpus[row]
        inst.post(gpu, row, self.time)
        self._waiting.add(row)
        self._on_comm_posted(gpu, inst)
        if inst.ready:
            inst.start(self.time)
            for rank_row in inst.posted.values():
                self._waiting.discard(rank_row)
                self._comm_started.add(rank_row)
            self._on_instance_started(inst)

    # ------------------------------------------------------------------
    # finishing
    # ------------------------------------------------------------------

    def _record(
        self,
        row: int,
        category: TaskCategory,
        started: float,
        isolated_s: float,
    ) -> TaskRecord:
        plan = self.plan
        return TaskRecord(
            plan.task_ids[row],
            self._gpus[row],
            self.prepared.stream_names[self._stream_of[row]],
            plan.labels[row],
            category,
            plan.phases[row],
            started,
            self.time,
            isolated_s,
        )

    def _finish_compute(self, row: int) -> None:
        entry = self.running.pop(row)
        del self._free_util[row]
        self._pop_head(self._stream_of[row], row)
        self.done.add(row)
        self.records.append(
            self._record(row, _COMPUTE, entry.started_at, entry.isolated_s)
        )
        self._on_task_done(row)

    def _finish_collective(self, key: str) -> None:
        inst = self.instances[key]
        inst.finish(self.time)
        started = inst.started_at if inst.started_at is not None else self.time
        for row in inst.posted.values():
            self._pop_head(self._stream_of[row], row)
            self._comm_started.discard(row)
            self.done.add(row)
            self.records.append(
                self._record(row, _COMM, started, inst.cost.duration_s)
            )
            self._on_task_done(row)
        self._on_collective_finished(inst)

    # ------------------------------------------------------------------
    # rates / contention
    # ------------------------------------------------------------------

    def _active_instances_on(self, gpu: int) -> List[CollectiveInstance]:
        return [
            inst
            for inst in self.instances.values()
            if inst.active and gpu in inst.op.participants
        ]

    def _spinning_instances_on(self, gpu: int) -> List[CollectiveInstance]:
        """Collectives whose kernel is resident on ``gpu`` but still
        waiting for peer ranks (busy-polling its channels' SMs)."""
        return [
            inst
            for inst in self.instances.values()
            if inst.started_at is None and gpu in inst.posted
        ]

    def _instance_rate(self, inst: CollectiveInstance) -> float:
        """Current progress rate of an active instance."""
        min_f = min(self._clock[g] for g in inst.op.participants)
        if not self.config.contention_enabled:
            min_f = self.config.max_clock_frac
        rate = inst.nominal_rate() * inst.progress_scale(min_f)
        if self._perturbed:
            link = self._perturb_link
            mul = min(link[g] for g in inst.op.participants)
            if mul != 1.0:
                # Flaky link: the collective crawls at the worst
                # participant's link derate (0.0 = full outage; the
                # finish projection is guarded by max(rate, 1e-12)).
                rate *= mul
        return rate

    def _recompute(self) -> None:
        # Pass 1: instance rates depend only on participant clocks. A
        # finish is (re)scheduled exactly when the rate *changes* — the
        # start is covered by the 0 -> positive transition, and an
        # unchanged rate means the outstanding event's projection is
        # still exact. Pushing only on change keeps the event sequence
        # (and therefore every same-time heap tie-break) structurally
        # identical between this engine and the incremental one.
        for inst in self.instances.values():
            if not inst.active:
                continue
            self.stats.instance_rate_passes += 1
            new_rate = self._instance_rate(inst)
            if new_rate != inst.rate:
                inst.rate = new_rate
                finish = self.time + inst.work_remaining / max(new_rate, 1e-12)
                self.queue.schedule(
                    finish, EventKind.COLLECTIVE_FINISH, inst.op.key
                )

        # Pass 2: compute rates under contention from active collectives.
        per_gpu_running: Dict[int, List[_RunningCompute]] = {}
        for entry in self.running.values():
            per_gpu_running.setdefault(self._gpus[entry.row], []).append(
                entry
            )

        for gpu_index in range(self.node.num_gpus):
            self._recompute_gpu(
                gpu_index,
                per_gpu_running.get(gpu_index, []),
                self._active_instances_on(gpu_index),
                self._spinning_instances_on(gpu_index),
            )

    def _recompute_gpu(
        self,
        gpu_index: int,
        entries: List[_RunningCompute],
        insts: List[CollectiveInstance],
        spinning: List[CollectiveInstance],
    ) -> None:
        """Update compute rates + power for one GPU from its residents.

        Each running kernel gets an equal share of the SMs and HBM
        bandwidth the resident collectives leave; finish events are
        (re)scheduled only when a rate changes.
        """
        self.stats.gpu_rate_passes += 1
        clock = self._clock[gpu_index]
        if self.config.contention_enabled:
            comm_sm = sum(i.cost.sm_fraction for i in insts)
            spin_sm = sum(i.cost.sm_fraction for i in spinning)
            total_sm = min(_MAX_COMM_SM, comm_sm + self._spin_scale * spin_sm)
            sm_avail = max(_MIN_SM_FRACTION, 1.0 - total_sm)
            hbm_eff = self._hbm_eff
            comm_hbm = sum(i.hbm_demand_now() for i in insts)
            hbm_avail = max(_MIN_HBM_FRACTION * hbm_eff, hbm_eff - comm_hbm)
            if insts:
                hbm_avail *= 1.0 - self._interference
            eff_clock = clock
        else:
            # The paper's ideal mode: no interference, clock at the cap.
            sm_avail = 1.0
            hbm_avail = self._hbm_eff
            eff_clock = self.config.max_clock_frac
        rate_mul = 1.0
        if self._perturbed:
            rate_mul = self._perturb_rate[gpu_index]
            hbm_mul = self._perturb_hbm[gpu_index]
            if hbm_mul != 1.0:
                hbm_avail *= hbm_mul
            cap = self._perturb_cap[gpu_index]
            if eff_clock > cap:
                # Only reachable in ideal mode, which bypasses the
                # (already capped) per-GPU clock.
                eff_clock = cap
        n = len(entries)
        rate_from_params = RateModel.rate_from_params
        for entry in entries:
            new_rate = rate_from_params(
                entry.peak_eff,
                entry.ai,
                sm_avail / n,
                hbm_avail / n,
                eff_clock,
            )
            # The straggler derate applies after the roofline floor,
            # so the rate stays positive.
            if rate_mul != 1.0:
                new_rate *= rate_mul
            if new_rate != entry.rate or not entry.scheduled:
                entry.rate = new_rate
                entry.scheduled = True
                finish = self.time + entry.work_remaining / new_rate
                self.queue.schedule(
                    finish, EventKind.TASK_FINISH, entry.row
                )
        self._update_power(gpu_index, entries, insts, spinning, clock)

    def _update_power(
        self,
        gpu_index: int,
        entries: List[_RunningCompute],
        insts: List[CollectiveInstance],
        spinning: List[CollectiveInstance],
        clock: float,
    ) -> None:
        """Evaluate and publish one GPU's board power.

        The kernel terms match the module-level ``sm_utilization``/
        ``hbm_demand`` functions bit-for-bit; the kernel parameters
        come pre-resolved from the launch table. The memoized value
        feeds the governor's view and the power-segment roll.
        """
        sm_util: Dict[Datapath, float] = {}
        hbm_used = 0.0
        stall_frac = self._stall_frac
        util_from_params = RateModel.sm_utilization_from_params
        free_utils = self._free_util
        for entry in entries:
            util = util_from_params(entry.peak_eff, entry.rate, 1.0, clock)
            # A kernel slowed *by contention* keeps most of its warps
            # resident and toggling; its power tracks the throughput it
            # would achieve uncontended, discounted by stall_power_frac,
            # not the throughput it actually achieves. Intrinsically
            # memory-bound kernels are unaffected (their uncontended
            # utilisation is already low).
            memo = free_utils[entry.row]
            free_util = memo.get(clock)
            if free_util is None:
                free_util = self._rates.free_utilization(entry.kernel, clock)
                memo[clock] = free_util
            if free_util > util:
                util += stall_frac * (free_util - util)
            # Short kernels never reach steady-state power: wave ramp-up
            # and drain clip the average draw (that is why small models
            # sit well below TDP on real boards).
            util *= entry.isolated_s / (entry.isolated_s + 50e-6)
            path = entry.kernel.path.datapath
            sm_util[path] = sm_util.get(path, 0.0) + util
            ai = entry.ai
            if ai != float("inf") and ai > 0:
                hbm_used += entry.rate / ai
        link_frac = 0.0
        for inst in insts:
            hbm_used += inst.hbm_demand_now()
            link_frac += inst.link_fraction_now()
            # Channel copy loops run on the vector pipes.
            sm_util[Datapath.VECTOR] = (
                sm_util.get(Datapath.VECTOR, 0.0)
                + _COMM_VECTOR_UTIL * inst.cost.sm_fraction
            )
        for inst in spinning:
            # Busy-polling channels draw some vector power but move no data.
            sm_util[Datapath.VECTOR] = (
                sm_util.get(Datapath.VECTOR, 0.0)
                + _SPIN_VECTOR_UTIL * inst.cost.sm_fraction
            )
        power = self._power_eval.evaluate_parts(
            clock,
            hbm_used / self._hbm_bw,
            min(link_frac, 1.0),
            tuple(sm_util.items()),
        )
        self._power_now[gpu_index] = power
        self._maybe_roll_segment(
            gpu_index,
            power,
            compute_active=bool(entries),
            comm_active=bool(insts),
            clock=clock,
        )

    # ------------------------------------------------------------------
    # governor
    # ------------------------------------------------------------------

    def _has_activity(self) -> bool:
        """Anything progressing (running kernels or active collectives)."""
        if self.running:
            return True
        return any(inst.active for inst in self.instances.values())

    def _ensure_ticks(self) -> None:
        """Keep governor ticks scheduled while work is progressing.

        Ticks are NOT scheduled when the machine is fully stalled, so a
        rendezvous deadlock drains the queue and is reported as such
        instead of ticking forever.
        """
        governors = self._governors
        if not governors or not self._has_activity():
            return
        # Fast path: every governed GPU is already awaiting its tick.
        if self._ticks_outstanding >= len(governors):
            return
        for gpu_index, pending in self._tick_pending.items():
            if pending:
                continue
            self._tick_pending[gpu_index] = True
            self._ticks_outstanding += 1
            self.queue.schedule_tick(
                self.time + self.config.governor_period_s, gpu_index
            )

    def _governor_tick(self, gpu_index: int) -> None:
        self._tick_pending[gpu_index] = False
        self._ticks_outstanding -= 1
        governor = self._governors.get(gpu_index)
        if governor is None:
            return
        power = self._power_now.get(gpu_index)
        if power is None:
            power = self._power_eval.idle_power()
        new_clock = governor.observe(power)
        if self._perturbed:
            cap = self._perturb_cap[gpu_index]
            if new_clock > cap:
                # Thermal ceiling: clamp both the applied clock and the
                # controller's internal state so its next ramp step
                # starts from the clock actually running.
                new_clock = cap
                governor.clock_frac = cap
        if new_clock != self._clock[gpu_index]:
            self._clock[gpu_index] = new_clock
            self._on_clock_changed(gpu_index)
        self._min_clock_seen = min(self._min_clock_seen, new_clock)

    # ------------------------------------------------------------------
    # perturbations
    # ------------------------------------------------------------------

    def _apply_perturb(self, index: int, begin: bool) -> None:
        """Open or close one degradation window (both engines share this).

        The targeted GPUs' multipliers are rebuilt from scratch from
        the *active* perturbation set, composing in spec order — never
        by multiplying/dividing incrementally, which would accumulate
        float drift and break cross-engine bit-equality. Every targeted
        GPU is then dirtied unconditionally via the ordinary
        clock-changed hook; the push-on-change discipline downstream
        makes spurious dirtying result-neutral.
        """
        if begin:
            self._active_perturbs.add(index)
        else:
            self._active_perturbs.discard(index)
        self.stats.perturb_events += 1
        full_cap = self.config.max_clock_frac
        active = sorted(self._active_perturbs)
        specs = self._perturbs
        target_sets = self._perturb_target_sets
        for g in self._perturb_targets[index]:
            rate = hbm = link = 1.0
            cap = full_cap
            for i in active:
                if g not in target_sets[i]:
                    continue
                spec = specs[i]
                kind = spec.kind
                keep = 1.0 - spec.magnitude
                if kind == "straggler_rank":
                    rate *= keep
                elif kind == "slow_hbm":
                    hbm *= keep
                elif kind == "flaky_link":
                    link *= keep
                else:  # thermal_throttle
                    ceiling = keep * full_cap
                    if ceiling < cap:
                        cap = ceiling
            self._perturb_rate[g] = rate
            self._perturb_hbm[g] = hbm
            self._perturb_link[g] = link
            if cap != self._perturb_cap[g]:
                self._perturb_cap[g] = cap
                self._apply_clock_cap(g, cap)
            self._on_clock_changed(g)

    def _apply_clock_cap(self, gpu_index: int, cap: float) -> None:
        """Reconcile a GPU's running clock with a new thermal ceiling."""
        governor = self._governors.get(gpu_index)
        clock = self._clock[gpu_index]
        if clock > cap:
            self._clock[gpu_index] = cap
            if governor is not None:
                governor.clock_frac = cap
            if cap < self._min_clock_seen:
                self._min_clock_seen = cap
        elif governor is None and clock < cap:
            # No control loop to ramp back up (ideal mode / governor
            # off): restore the ceiling directly when it lifts.
            self._clock[gpu_index] = cap

    # ------------------------------------------------------------------
    # power segments
    # ------------------------------------------------------------------

    def _open_segments(self) -> None:
        if not self.config.trace_power:
            return
        idle = self._power_eval.idle_power()
        for g in range(self.node.num_gpus):
            self._power_now[g] = idle
            self._segment_open[g] = (0.0, idle, False, False, self._clock[g])

    def _maybe_roll_segment(
        self,
        gpu_index: int,
        power: float,
        compute_active: bool,
        comm_active: bool,
        clock: float,
    ) -> None:
        current = self._segment_open.get(gpu_index)
        if current is None:
            return
        start_s, cur_power, cur_compute, cur_comm, cur_clock = current
        if (
            cur_compute == compute_active
            and cur_comm == comm_active
            and abs(cur_power - power) < 1e-6
            and abs(cur_clock - clock) < 1e-9
        ):
            return
        if self.time > start_s:
            self._segments[gpu_index].append(
                PowerSegment(
                    gpu=gpu_index,
                    start_s=start_s,
                    end_s=self.time,
                    power_w=cur_power,
                    compute_active=cur_compute,
                    comm_active=cur_comm,
                    clock_frac=cur_clock,
                )
            )
        self._segment_open[gpu_index] = (
            self.time,
            power,
            compute_active,
            comm_active,
            clock,
        )

    def _close_segments(self) -> None:
        if not self.config.trace_power:
            return
        for g, current in self._segment_open.items():
            start_s, cur_power, cur_compute, cur_comm, cur_clock = current
            if self.time > start_s:
                self._segments[g].append(
                    PowerSegment(
                        gpu=g,
                        start_s=start_s,
                        end_s=self.time,
                        power_w=cur_power,
                        compute_active=cur_compute,
                        comm_active=cur_comm,
                        clock_frac=cur_clock,
                    )
                )
        self._segment_open.clear()

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def _deadlock_report(self) -> str:
        labels = self.plan.labels
        unfinished = [
            label for row, label in enumerate(labels) if row not in self.done
        ]
        heads = {
            self.plan.stream_keys[sid]: labels[self._head(sid)]
            for sid in range(len(self.streams))
            if self._head(sid) is not None
        }
        waiting_collectives = {
            key: sorted(inst.posted)
            for key, inst in self.instances.items()
            if not inst.active and inst.finished_at is None
        }
        return (
            f"deadlock at t={self.time:.6f}s: "
            f"{len(unfinished)} tasks unfinished "
            f"(first: {unfinished[:5]}); stream heads: {heads}; "
            f"incomplete collectives: {waiting_collectives}"
        )


class IncrementalSimulator(Simulator):
    """O(affected) event updates over the same physics as the reference.

    Event handlers mark *dirty* GPUs (whose resident-set, contention
    aggregate or clock changed) and *dirty* collective instances (a
    participant clock moved, or the instance just started); the
    recompute then touches only those. All other state is provably
    unchanged — the reference engine would recompute identical floats
    and push no events — so skipping it cannot alter the results.

    Progress banking is lazy: the event loop appends each positive
    time step to a log, and an entry/instance replays its missed steps
    (with the per-step ``max(0, w - r*dt)`` clamp) only when its rate
    changes or its remaining work is read. The replay performs exactly
    the reference engine's per-event arithmetic, which is what keeps
    the two engines bit-for-bit identical rather than merely close.

    The drain is fused in two places (see :meth:`_make_gpu_pass` and
    :meth:`_run_loop`): one pass per dirty GPU derives its rates and
    board power together, and the event loop runs the hot handlers
    inline on local bindings. Both keep every float operation of the
    reference's per-step methods, in the same order and with the same
    summation primitive.
    """

    def __init__(
        self,
        node: NodeSpec,
        plan: ExecutionPlan,
        config: Optional[SimConfig] = None,
        cost_model: Optional[CollectiveCostModel] = None,
        prepared: Optional[PreparedSim] = None,
    ):
        super().__init__(
            node, plan, config, cost_model=cost_model, prepared=prepared
        )
        num_gpus = node.num_gpus
        #: Global log of positive time steps (the replay tape).
        self._dts: List[float] = []
        #: GPUs whose rate/power inputs changed since the last recompute.
        #: Starts full so the first recompute mirrors the reference
        #: engine's initial full pass (priming ``_power_now`` for all).
        self._dirty_gpus: Set[int] = set(range(num_gpus))
        #: Dirty active instances, by creation ``seq``.
        self._dirty_insts: Set[int] = set()
        self._insts_by_seq: Dict[int, CollectiveInstance] = {}
        #: Per-GPU resident sets, pooled across runs (see RunArena).
        #: Iterated in creation/launch order so float accumulations
        #: match the reference engine's global dict-order sums exactly.
        self._arena = run_arena()
        self._arena_released = False
        triple = self._arena.acquire_sets(num_gpus)
        self._arena_sets = triple
        self._running_on: List[Dict[int, _RunningCompute]] = triple[0]
        self._active_on: List[Dict[int, CollectiveInstance]] = triple[1]
        self._spinning_on: List[Dict[int, CollectiveInstance]] = triple[2]
        self._active_inst_count = 0
        #: Streams (by index) whose head may have become launchable.
        self._launch_candidates: Set[int] = set(range(len(self.streams)))
        #: The wake-stream index, read-only from the prep layer.
        self._wake_streams = self.prepared.wake_streams
        self._gpu_pass = self._make_gpu_pass()

    def _finalize(self) -> SimulationResult:
        result = super()._finalize()
        # Return the pooled per-run containers to the thread's arena
        # (once). The simulator's own references stay valid — the
        # containers are simply cleared — and nothing reads them after
        # this point.
        if not self._arena_released:
            self._arena_released = True
            self._arena.release_sets(self.node.num_gpus, self._arena_sets)
        return result

    # ------------------------------------------------------------------
    # lazy banking
    # ------------------------------------------------------------------

    def _bank_instance(self, inst: CollectiveInstance) -> None:
        dts = self._dts
        n = len(dts)
        i = inst.bank_idx
        if i < n:
            w = inst.work_remaining
            r = inst.rate
            # Same per-step arithmetic as the eager path; the branch is
            # max(0.0, .) without the builtin call.
            while i < n:
                w -= r * dts[i]
                if w < 0.0:
                    w = 0.0
                i += 1
            inst.work_remaining = w
            inst.bank_idx = n
            inst.last_update_s = self.time

    # ------------------------------------------------------------------
    # dirty tracking hooks
    # ------------------------------------------------------------------

    def _on_instance_created(self, inst: CollectiveInstance) -> None:
        self._insts_by_seq[inst.seq] = inst

    def _on_comm_posted(self, gpu: int, inst: CollectiveInstance) -> None:
        # The instance busy-polls this rank's SMs until the rendezvous
        # completes; its spin footprint appears on this GPU only.
        self._spinning_on[gpu][inst.seq] = inst
        self._dirty_gpus.add(gpu)

    def _on_instance_started(self, inst: CollectiveInstance) -> None:
        inst.bank_idx = len(self._dts)
        seq = inst.seq
        for gpu in inst.posted:
            self._spinning_on[gpu].pop(seq, None)
        for gpu in inst.op.participants:
            self._active_on[gpu][seq] = inst
        self._dirty_gpus.update(inst.op.participants)
        self._dirty_insts.add(seq)
        self._active_inst_count += 1

    def _on_collective_finished(self, inst: CollectiveInstance) -> None:
        seq = inst.seq
        for gpu in inst.op.participants:
            self._active_on[gpu].pop(seq, None)
        self._dirty_gpus.update(inst.op.participants)
        self._dirty_insts.discard(seq)
        self._insts_by_seq.pop(seq, None)
        self._active_inst_count -= 1

    def _on_task_done(self, row: int) -> None:
        self._launch_candidates.update(self._wake_streams[row])

    def _on_clock_changed(self, gpu_index: int) -> None:
        self._dirty_gpus.add(gpu_index)
        # A moved clock shifts the min-participant-clock of every
        # active collective this GPU takes part in.
        self._dirty_insts.update(self._active_on[gpu_index])

    def _has_activity(self) -> bool:
        return bool(self.running) or self._active_inst_count > 0

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def _run_loop(self) -> None:
        """The reference loop with its hot steps inlined.

        Same step order as :meth:`Simulator._run_loop` — launch,
        recompute, tick upkeep, then pop and dispatch one event — with
        the loop state bound to locals and five steps written out in
        place: the time advance (a positive step goes on the replay
        tape), the ``TASK_FINISH`` handler (:meth:`_finish_compute`
        plus the dirty/wake bookkeeping), the governor tick
        (:meth:`_governor_tick`), stream-head launching and the
        :meth:`_ensure_ticks` fast path. Collective finishes and
        perturbation boundaries keep their shared handlers, which read
        ``self.time``; it is rebound whenever time moves.

        Launching a task never *enables* another launch (only task
        completion satisfies deps or exposes a new head), so one pass
        over the candidate streams — in the reference engine's stream
        order — launches exactly what its full fixpoint scan would.
        The run's first launch goes through the same block, as the
        loop body's first step.

        Events are popped here, not through
        :meth:`EventQueue.pop_live`: from the tick lane when its head
        precedes the heap's, else from the heap under the liveness rule
        of :mod:`repro.sim.events` (a stale entry is dropped and
        counted, a live one retires its key), each followed by
        ``pop_live``'s compaction check.

        Two kinds of event skip the upkeep and go straight to the next
        pop, because the upkeep would do nothing but what they do in
        place. Both rest on one fact: when an event is popped, the
        candidate streams and the dirty GPUs and instances are all
        empty. The upkeep empties them, and neither shortcut fills
        them.

        * *A tick that holds the clock.* Most ticks only move the
          governor's power average. Such a tick dirties nothing, so
          the launch scan and the recompute would do nothing, and
          :meth:`_ensure_ticks` would re-arm that GPU alone (every
          other GPU's tick is outstanding) at the same time and in the
          same counter order. The loop re-arms it in place.
        * *The same-stream hand-off.* A ``TASK_FINISH`` whose wake
          tuple is its own stream alone (most finishes) leaves that
          stream the only candidate and its GPU the only dirty one.
          Unless it is the run's last task or its stream's new head is
          a collective rank (whose post can start an instance and
          dirty other GPUs), the loop does what the upkeep would: it
          launches the head if it is a compute row whose deps are met,
          with the launch block's construction, runs the fused pass
          for this GPU alone and makes the :meth:`_ensure_ticks`
          check. ``stats.handoffs`` counts these finishes.

        A skipped upkeep still counts its event and puts its time
        step on the replay tape.
        """
        queue = self.queue
        heap = queue._heap
        ticks = queue._ticks
        live = queue._live
        schedule_tick = queue.schedule_tick
        max_time = self.config.max_sim_time_s
        dts = self._dts
        running = self.running
        running_on = self._running_on
        waiting = self._waiting
        comm_started = self._comm_started
        streams = self.streams
        stream_pos = self._stream_pos
        stream_of = self._stream_of
        stream_names = self.prepared.stream_names
        gpus = self._gpus
        refs = self._refs
        categories = self._categories
        deps_of = self._deps
        task_ids = self.plan.task_ids
        labels = self.plan.labels
        phases = self.plan.phases
        work_of = self._work
        isolated_of = self._isolated
        kernels = self._kernels
        peak_eff_of = self._peak_eff
        ai_of = self._ai
        done = self.done
        deps_met = done.issuperset
        records = self.records
        candidates = self._launch_candidates
        wake_streams = self._wake_streams
        dirty_gpus = self._dirty_gpus
        recompute = self._recompute
        governors = self._governors
        governed = len(governors)
        tick_pending = self._tick_pending
        period = self.config.governor_period_s
        clock_of = self._clock
        power_now = self._power_now
        idle_power = self._power_eval.idle_power
        perturbed = self._perturbed
        perturb_cap = self._perturb_cap
        total = self._num_tasks
        gpu_pass = self._gpu_pass
        now = self.time
        events = 0
        handoffs = 0
        try:
            while True:
                while candidates:
                    # Stream indices are the reference's stream order.
                    if len(candidates) == 1:
                        batch = list(candidates)
                    else:
                        batch = sorted(candidates)
                    candidates.clear()
                    for sid in batch:
                        order = streams[sid]
                        pos = stream_pos[sid]
                        if pos >= len(order):
                            continue
                        row = order[pos]
                        if (
                            row in running
                            or row in waiting
                            or row in comm_started
                        ):
                            continue
                        deps = deps_of[row]
                        if deps and not deps_met(deps):
                            continue
                        if categories[row] is _COMPUTE:
                            # _launch_compute; rate=1.0 is a placeholder
                            # the first recompute overwrites.
                            ref = refs[row]
                            entry = _RunningCompute(
                                kernels[ref], work_of[row], 1.0,
                                isolated_of[row], now, peak_eff_of[ref],
                                ai_of[ref], row, False, len(dts),
                            )
                            running[row] = entry
                            gpu = gpus[row]
                            running_on[gpu][row] = entry
                            dirty_gpus.add(gpu)
                        else:
                            self._post_comm(row)
                recompute()
                if governed and self._ticks_outstanding < governed:
                    self._ensure_ticks()

                # Pop and dispatch until an event leaves work for the
                # upkeep above (every event but a clock-holding tick
                # or a same-stream hand-off).
                while True:
                    # pop_live, inline: an entry is live iff its key
                    # still maps to its counter.
                    if ticks and (not heap or ticks[0] < heap[0]):
                        t, _, payload = heappop(ticks)
                        kind = _GOVERNOR_TICK
                    elif heap:
                        t, counter, kind, payload = heappop(heap)
                        key = (kind, payload)
                        if live.get(key) != counter:
                            queue._tombstones -= 1
                            queue.stale_dropped += 1
                            continue
                        del live[key]
                    else:
                        raise DeadlockError(self._deadlock_report())
                    size = len(heap) + len(ticks)
                    if (
                        size >= _COMPACT_MIN_SIZE
                        and queue._tombstones > size // 2
                    ):
                        queue.compact()
                    if t > max_time:
                        raise SimulationError(
                            f"simulation exceeded {max_time}s"
                        )
                    events += 1
                    if t > now:
                        dts.append(t - now)
                        now = t
                        self.time = t
                    elif t < now - 1e-12:
                        raise SimulationError("event time went backwards")

                    if kind is _GOVERNOR_TICK:
                        governor = governors[payload]
                        power = power_now.get(payload)
                        if power is None:
                            power = idle_power()
                        new_clock = governor.observe(power)
                        if perturbed:
                            cap = perturb_cap[payload]
                            if new_clock > cap:
                                # Thermal ceiling: clamp the controller
                                # too (see _governor_tick).
                                new_clock = cap
                                governor.clock_frac = cap
                        if new_clock < self._min_clock_seen:
                            self._min_clock_seen = new_clock
                        if new_clock != clock_of[payload]:
                            clock_of[payload] = new_clock
                            self._on_clock_changed(payload)
                        elif self._ticks_outstanding == governed and (
                            running or self._active_inst_count > 0
                        ):
                            # The clock held, so nothing is dirty. With
                            # every other tick outstanding and work in
                            # flight, _ensure_ticks would re-arm this
                            # GPU alone: do that, and pop again.
                            schedule_tick(now + period, payload)
                            continue
                        tick_pending[payload] = False
                        self._ticks_outstanding -= 1
                    elif kind is _TASK_FINISH:
                        entry = running.pop(payload)
                        gpu = gpus[payload]
                        sid = stream_of[payload]
                        order = streams[sid]
                        pos = stream_pos[sid]
                        if pos >= len(order) or order[pos] != payload:
                            self._pop_head(sid, payload)  # raises
                        pos += 1
                        stream_pos[sid] = pos
                        done.add(payload)
                        records.append(
                            TaskRecord(
                                task_ids[payload],
                                gpu,
                                stream_names[sid],
                                labels[payload],
                                _COMPUTE,
                                phases[payload],
                                entry.started_at,
                                now,
                                entry.isolated_s,
                            )
                        )
                        del running_on[gpu][payload]
                        wake = wake_streams[payload]
                        head = order[pos] if pos < len(order) else None
                        if (
                            len(wake) == 1
                            and len(done) < total
                            and (head is None or categories[head] is _COMPUTE)
                        ):
                            # The same-stream hand-off: the upkeep would
                            # launch at most this head and pass this
                            # GPU alone. Launch as the block above does.
                            if head is not None:
                                deps = deps_of[head]
                                if not deps or deps_met(deps):
                                    ref = refs[head]
                                    entry = _RunningCompute(
                                        kernels[ref], work_of[head], 1.0,
                                        isolated_of[head], now,
                                        peak_eff_of[ref], ai_of[ref],
                                        head, False, len(dts),
                                    )
                                    running[head] = entry
                                    running_on[gpu][head] = entry
                            handoffs += 1
                            gpu_pass(gpu, now)
                            if (
                                governed
                                and self._ticks_outstanding < governed
                            ):
                                self._ensure_ticks()
                            continue
                        dirty_gpus.add(gpu)
                        candidates.update(wake)
                    elif kind is _COLLECTIVE_FINISH:
                        self._finish_collective(payload)
                    elif kind is _PERTURB_BEGIN:
                        self._apply_perturb(payload, True)
                    elif kind is _PERTURB_END:
                        self._apply_perturb(payload, False)
                    break
                if len(done) >= total:
                    break
        finally:
            self.stats.events += events
            self.stats.handoffs += handoffs

    def _recompute(self) -> None:
        now = self.time
        if self._dirty_insts:
            # Creation order == the reference engine's global
            # instances-dict order, so same-time finish events are
            # pushed with the same relative heap priority.
            for seq in sorted(self._dirty_insts):
                inst = self._insts_by_seq.get(seq)
                if inst is None or not inst.active:
                    continue
                self.stats.instance_rate_passes += 1
                new_rate = self._instance_rate(inst)
                if new_rate != inst.rate:
                    self._bank_instance(inst)
                    inst.rate = new_rate
                    finish = now + inst.work_remaining / max(
                        new_rate, 1e-12
                    )
                    self.queue.schedule(
                        finish, _COLLECTIVE_FINISH, inst.op.key
                    )
                    # The instance's HBM/link draw scales with its
                    # rate; every participant's contention changed.
                    self._dirty_gpus.update(inst.op.participants)
            self._dirty_insts.clear()

        dirty = self._dirty_gpus
        if dirty:
            gpu_pass = self._gpu_pass
            for gpu_index in sorted(dirty):
                gpu_pass(gpu_index, now)
            dirty.clear()

    def _make_gpu_pass(self):
        """Build the fused rate + power pass for one dirty GPU.

        ``gpu_pass(gpu_index, now)`` does the work of the reference's
        :meth:`_recompute_gpu` → :meth:`_update_power` →
        :meth:`PowerEvaluator.evaluate_parts` →
        :meth:`_maybe_roll_segment` chain in one loop over the GPU's
        running kernels. Per kernel it derives the rate (a finish is
        pushed only on change, after replaying the missed steps of the
        time-step tape at the old rate), the free-running utilisation
        (:meth:`RateModel.free_utilization`'s arithmetic, computed
        inline: under a power cap the clock moves on most updates, so
        a per-(kernel, clock) memo mostly misses) and the SM and HBM
        power terms. It then evaluates the board power formula
        directly and rolls the power segment.

        Why it is bit-for-bit the reference:

        * every sum runs in the reference's order — kernels in launch
          order, collectives in creation (``seq``) order — and with
          its primitive: the builtin ``sum()`` for the contention
          availability, ``+=`` for the power terms (on Python ≥3.12
          ``sum()`` of floats is compensated, so the two differ);
        * ``min``/``max`` clamps become branches that pick the same
          float for every non-NaN input;
        * the SM power term is summed vector then tensor, where the
          reference sums in datapath first-seen order. That is free
          only because :class:`Datapath` has two members: for the
          non-negative terms, ``0.0 + a + b`` equals ``a + b`` equals
          ``b + a`` in IEEE arithmetic, and an absent datapath
          contributes an exact ``0.0``;
        * the power memo is keyed on the exact inputs, so evaluating
          the formula fresh returns the float it would have cached.

        A closure over identity-stable state (containers mutated in
        place, never rebound), not a method: that removes a few dozen
        ``self`` attribute walks per call. It must not capture ``self``
        — the simulator holds the closure, so a back-reference would
        keep every finished simulator alive until the next cyclic GC —
        which is why ``now`` is an argument.
        """
        stats = self.stats
        clock_of = self._clock
        running_on = self._running_on
        active_on = self._active_on
        spinning_on = self._spinning_on
        dts = self._dts
        schedule = self.queue.schedule
        contention = self.config.contention_enabled
        max_clock = self.config.max_clock_frac
        hbm_eff = self._hbm_eff
        hbm_floor = _MIN_HBM_FRACTION * hbm_eff
        interference_keep = 1.0 - self._interference
        spin_scale = self._spin_scale
        stall_frac = self._stall_frac
        perturbed = self._perturbed
        perturb_rate = self._perturb_rate
        perturb_hbm = self._perturb_hbm
        perturb_cap = self._perturb_cap
        free_utilization = self._rates.free_utilization
        free_bw = self._rates.gpu.memory.effective_bandwidth
        power_eval = self._power_eval
        clock_term = power_eval.clock_term
        # clock_term's memo, read directly: nearly every pass hits it.
        clock_pow = power_eval._clock_pow
        coeffs = power_eval.coeffs
        tdp_w = power_eval.tdp_w
        idle_frac = coeffs.idle_frac
        vector_max = coeffs.sm_max_frac[Datapath.VECTOR]
        tensor_max = coeffs.sm_max_frac[Datapath.TENSOR]
        hbm_max = coeffs.hbm_max_frac
        link_max = coeffs.link_max_frac
        hbm_bw = self._hbm_bw
        power_now = self._power_now
        segment_open = self._segment_open
        segments = self._segments
        vector = Datapath.VECTOR

        def gpu_pass(gpu_index: int, now: float) -> None:
            stats.gpu_rate_passes += 1
            clock = clock_of[gpu_index]
            # Resident collectives in creation order (the reference's
            # global instances-dict order).
            active = active_on[gpu_index]
            if active:
                insts = [active[s] for s in sorted(active)]
                comm_sms = [inst.cost.sm_fraction for inst in insts]
                demands = [inst.hbm_demand_now() for inst in insts]
            else:
                insts = comm_sms = demands = ()
            spinning = spinning_on[gpu_index]
            if spinning:
                spin_sms = [
                    spinning[s].cost.sm_fraction for s in sorted(spinning)
                ]
            else:
                spin_sms = ()

            # Availability left by the collectives (_recompute_gpu).
            if not contention:
                # The paper's ideal mode: no interference, clock at
                # the cap.
                sm_avail = 1.0
                hbm_avail = hbm_eff
                eff_clock = max_clock
            elif insts or spin_sms:
                total_sm = sum(comm_sms) + spin_scale * sum(spin_sms)
                if total_sm > _MAX_COMM_SM:
                    total_sm = _MAX_COMM_SM
                sm_avail = 1.0 - total_sm
                if sm_avail < _MIN_SM_FRACTION:
                    sm_avail = _MIN_SM_FRACTION
                hbm_avail = hbm_eff - sum(demands)
                if hbm_avail < hbm_floor:
                    hbm_avail = hbm_floor
                if insts:
                    hbm_avail *= interference_keep
                eff_clock = clock
            else:
                # Nothing resident: the floors cannot bind.
                sm_avail = 1.0
                hbm_avail = hbm_eff
                eff_clock = clock
            if perturbed:
                rate_mul = perturb_rate[gpu_index]
                hbm_mul = perturb_hbm[gpu_index]
                if hbm_mul != 1.0:
                    hbm_avail *= hbm_mul
                cap = perturb_cap[gpu_index]
                if eff_clock > cap:
                    # Only reachable in ideal mode, which bypasses the
                    # (already capped) per-GPU clock.
                    eff_clock = cap
            else:
                rate_mul = 1.0

            vector_util = 0.0
            tensor_util = 0.0
            hbm_used = 0.0
            running = running_on[gpu_index]
            n = len(running)
            if n:
                sm_share = sm_avail / n
                hbm_share = hbm_avail / n
                steps = len(dts)
                for entry in running.values():
                    peak_eff = entry.peak_eff
                    ai = entry.ai
                    # RateModel.rate_from_params.
                    rate = peak_eff * sm_share * eff_clock
                    if ai != _INF:
                        bw_rate = ai * hbm_share
                        if bw_rate < rate:
                            rate = bw_rate
                    if rate <= 0.0:
                        rate = peak_eff * 1e-4
                        if rate < 1.0:
                            rate = 1.0
                    # The straggler derate applies after the roofline
                    # floor, so the rate stays positive.
                    if rate_mul != 1.0:
                        rate *= rate_mul
                    if rate != entry.rate or not entry.scheduled:
                        # Bank the steps missed since the last change
                        # at the old rate (the replay tape).
                        i = entry.bank_idx
                        if i < steps:
                            w = entry.work_remaining
                            old = entry.rate
                            while i < steps:
                                w -= old * dts[i]
                                if w < 0.0:
                                    w = 0.0
                                i += 1
                            entry.work_remaining = w
                            entry.bank_idx = steps
                        entry.rate = rate
                        entry.scheduled = True
                        schedule(
                            now + entry.work_remaining / rate,
                            _TASK_FINISH,
                            entry.row,
                        )

                    # _update_power's kernel terms.
                    peak = peak_eff * clock
                    if peak > 0.0:
                        # RateModel.sm_utilization_from_params at
                        # sm_fraction=1.0.
                        util = rate / peak
                        if util > 1.0:
                            util = 1.0
                        # RateModel.free_utilization: the same
                        # roofline with the whole GPU at this clock.
                        free_rate = peak
                        if ai != _INF:
                            bw_rate = ai * free_bw
                            if bw_rate < free_rate:
                                free_rate = bw_rate
                        if free_rate <= 0.0:
                            free_rate = peak_eff * 1e-4
                            if free_rate < 1.0:
                                free_rate = 1.0
                        free_util = free_rate / peak
                        if free_util > 1.0:
                            free_util = 1.0
                    else:
                        util = 0.0
                        free_util = free_utilization(entry.kernel, clock)
                    # Contention-stalled warps keep toggling (see
                    # _update_power).
                    if free_util > util:
                        util += stall_frac * (free_util - util)
                    iso = entry.isolated_s
                    util *= iso / (iso + 50e-6)
                    if entry.kernel.path.datapath is vector:
                        vector_util += util
                    else:
                        tensor_util += util
                    if ai != _INF and ai > 0:
                        hbm_used += rate / ai
            link_frac = 0.0
            for inst, demand, sm_fraction in zip(insts, demands, comm_sms):
                hbm_used += demand
                link_frac += inst.link_fraction_now()
                # Channel copy loops run on the vector pipes.
                vector_util += _COMM_VECTOR_UTIL * sm_fraction
            for sm_fraction in spin_sms:
                # Busy-polling channels draw some vector power.
                vector_util += _SPIN_VECTOR_UTIL * sm_fraction

            # PowerEvaluator.evaluate_parts, clamps as branches.
            if vector_util > 1.0:
                vector_util = 1.0
            elif vector_util < 0.0:
                vector_util = 0.0
            if tensor_util > 1.0:
                tensor_util = 1.0
            elif tensor_util < 0.0:
                tensor_util = 0.0
            hbm_frac = hbm_used / hbm_bw
            if hbm_frac > 1.0:
                hbm_frac = 1.0
            elif hbm_frac < 0.0:
                hbm_frac = 0.0
            if link_frac > 1.0:
                link_frac = 1.0
            elif link_frac < 0.0:
                link_frac = 0.0
            term = clock_pow.get(clock)
            if term is None:
                term = clock_term(clock)
            power = tdp_w * (
                idle_frac
                + (vector_max * vector_util + tensor_max * tensor_util) * term
                + hbm_max * hbm_frac
                + link_max * link_frac
            )
            power_now[gpu_index] = power

            # _maybe_roll_segment.
            current = segment_open.get(gpu_index)
            if current is None:
                return
            compute_active = n > 0
            comm_active = bool(insts)
            start_s, cur_power, cur_compute, cur_comm, cur_clock = current
            if (
                cur_compute == compute_active
                and cur_comm == comm_active
                and abs(cur_power - power) < 1e-6
                and abs(cur_clock - clock) < 1e-9
            ):
                return
            if now > start_s:
                # tuple.__new__: PowerSegment adds no validation, and
                # the namedtuple's generated __new__ is a python frame
                # per roll (nearly every pass under a power cap).
                segments[gpu_index].append(
                    tuple.__new__(
                        PowerSegment,
                        (
                            gpu_index, start_s, now, cur_power,
                            cur_compute, cur_comm, cur_clock,
                        ),
                    )
                )
            segment_open[gpu_index] = (
                now, power, compute_active, comm_active, clock,
            )

        return gpu_pass


def make_simulator(
    node: NodeSpec,
    plan: ExecutionPlan,
    config: Optional[SimConfig] = None,
    cost_model: Optional[CollectiveCostModel] = None,
    prepared: Optional[PreparedSim] = None,
) -> Simulator:
    """Build the engine ``config`` selects: the incremental engine, or
    the reference oracle when ``config.reference_engine`` is set."""
    if config is None:
        config = SimConfig()
    cls = Simulator if config.reference_engine else IncrementalSimulator
    return cls(node, plan, config, cost_model=cost_model, prepared=prepared)


def simulate(
    node: NodeSpec,
    plan: ExecutionPlan,
    config: Optional[SimConfig] = None,
    cost_model: Optional[CollectiveCostModel] = None,
    prepared: Optional[PreparedSim] = None,
) -> SimulationResult:
    """Convenience wrapper: build the configured engine and run it.

    ``cost_model`` lets callers share one memoized
    :class:`CollectiveCostModel` across many simulations of the same
    node (see :mod:`repro.exec.planning`); it is stateless, so sharing
    cannot change results. ``prepared``
    short-circuits all pure setup with a pre-built (planner-cached)
    :class:`~repro.sim.prep.PreparedSim` for the same (node, plan,
    config).
    """
    return make_simulator(
        node, plan, config, cost_model=cost_model, prepared=prepared
    ).run()
