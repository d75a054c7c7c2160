"""Execution plans: ordered per-GPU stream programs plus dependencies.

A plan is stored column-wise. Row ``r`` is the ``r``-th task added;
each row has one slot in a handful of parallel lists — GPU, stream,
label, phase, category and an index into the plan's small kernel or
collective-op table — and its dependencies sit in CSR form
(``dep_ids[dep_ptr[r]:dep_ptr[r + 1]]``). A quick-grid plan of ~3,000
tasks is a dozen lists, not 3,000 task objects each holding its own
dependency set, and the prepared-simulation layer reads the columns
directly.

Compute rows enter through one chain appender,
:meth:`PlanBuilder.add_chain`: a layer's (or a pipeline stage's)
kernels are appended as one block, each column extended once, with the
dependencies on the first row only and stream order chaining the rest.
The builder resolves a chain's kernel refs once, and its
``g{gpu}.{name}`` labels once per GPU, then reuses them whenever the
same chain comes back — FSDP emits each layer on every GPU, the
pipeline re-emits each stage for every microbatch — so a plan pays
per distinct chain rather than per row. :meth:`PlanBuilder.add_compute`
is its one-kernel case.

:attr:`ExecutionPlan.tasks` still offers the rows as
:class:`~repro.sim.task.ComputeTask`/:class:`~repro.sim.task.CommTask`
objects, built on first access, for tests, reports and hand-built
plans; ``ExecutionPlan(name, tasks=[...])`` ingests such rows.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.collectives.primitives import CollectiveKind, CollectiveOp
from repro.errors import PlanError
from repro.sim.task import (
    COMM_STREAM,
    COMPUTE_STREAM,
    CommTask,
    ComputeTask,
    Task,
    TaskCategory,
)
from repro.workloads.kernels import KernelSpec, intern_kernel

_COMPUTE = TaskCategory.COMPUTE
_COMM = TaskCategory.COMM


class ExecutionPlan:
    """A set of tasks ready for simulation, stored as columns.

    Rows appear in per-stream program order (the order they were added
    to the builder); dependencies encode cross-stream and cross-GPU
    edges. Every column is read-only once the plan is built.
    """

    def __init__(
        self,
        name: str,
        tasks: Iterable[Task] = (),
        metadata: Optional[Dict[str, object]] = None,
    ):
        self.name = name
        self.metadata: Dict[str, object] = {} if metadata is None else metadata
        #: Row -> task id; a ``range`` when the ids are the row numbers.
        self.task_ids: Sequence[int] = range(0)
        self.gpus: List[int] = []
        #: Row -> index into :attr:`stream_keys`.
        self.stream_ids: List[int] = []
        self.labels: List[str] = []
        self.phases: List[str] = []
        self.categories: List[TaskCategory] = []
        #: Row -> index into :attr:`kernels` (compute) or :attr:`ops`
        #: (collective rank).
        self.refs: List[int] = []
        #: CSR dependencies, as task ids.
        self.dep_ptr: List[int] = [0]
        self.dep_ids: List[int] = []
        self.kernels: List[KernelSpec] = []
        self.ops: List[CollectiveOp] = []
        #: ``(gpu, stream)`` per stream, in first-use order.
        self.stream_keys: List[Tuple[int, str]] = []
        self._task_view: Optional[Tuple[Task, ...]] = None
        self._dep_rows: Optional[Tuple[Tuple[int, ...], ...]] = None
        rows = tuple(tasks)
        if rows:
            self._ingest(rows)

    def _ingest(self, rows: Tuple[Task, ...]) -> None:
        # Rows go through the builder's appenders into this plan's
        # columns; the ids are the rows' own (not validated here).
        builder = PlanBuilder(self.name)
        builder._plan = self
        for task in rows:
            deps = sorted(task.deps)
            if isinstance(task, CommTask):
                builder._append_rank(
                    task.gpu,
                    task.stream,
                    task.label,
                    task.phase,
                    builder._op_ref(task.op),
                    deps,
                )
            else:
                builder.add_chain(
                    task.gpu,
                    (task.kernel,),  # type: ignore[attr-defined]
                    deps,
                    task.stream,
                    task.phase,
                    labels=(task.label,),
                )
        ids = [task.task_id for task in rows]
        dense = range(len(ids))
        self.task_ids = dense if ids == list(dense) else ids
        self._task_view = rows

    # ------------------------------------------------------------------
    # row views
    # ------------------------------------------------------------------

    @property
    def num_tasks(self) -> int:
        return len(self.gpus)

    @property
    def tasks(self) -> Tuple[Task, ...]:
        """The rows as task objects (built on first access, read-only)."""
        view = self._task_view
        if view is None:
            view = self._task_view = tuple(self._make_tasks())
        return view

    def _make_tasks(self) -> Iterable[Task]:
        ptr = self.dep_ptr
        dep_ids = self.dep_ids
        for row, tid in enumerate(self.task_ids):
            gpu = self.gpus[row]
            stream = self.stream_keys[self.stream_ids[row]][1]
            deps = frozenset(dep_ids[ptr[row]:ptr[row + 1]])
            if self.categories[row] is _COMM:
                yield CommTask(
                    task_id=tid,
                    gpu=gpu,
                    stream=stream,
                    label=self.labels[row],
                    deps=deps,
                    phase=self.phases[row],
                    op=self.ops[self.refs[row]],
                )
            else:
                yield ComputeTask(
                    task_id=tid,
                    gpu=gpu,
                    stream=stream,
                    label=self.labels[row],
                    deps=deps,
                    phase=self.phases[row],
                    kernel=self.kernels[self.refs[row]],
                )

    def tasks_on(self, gpu: int, stream: str = None) -> List[Task]:  # type: ignore[assignment]
        """Tasks of one GPU (optionally one stream), in program order."""
        return [
            t
            for t in self.tasks
            if t.gpu == gpu and (stream is None or t.stream == stream)
        ]

    def dep_rows(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-row dependencies as row numbers (``()`` for none).

        Mapping ids to rows is where an unvalidated row set can fail: a
        duplicate id or a dependency on an unknown id raises
        :class:`PlanError`. Plans from :class:`PlanBuilder` number
        their rows densely, so their ids *are* the rows. The columns
        are read-only once the plan is built, so the mapping is made
        once: :meth:`validate` and the prepared-simulation layer share
        it.
        """
        rows = self._dep_rows
        if rows is None:
            rows = self._dep_rows = self._map_dep_rows()
        return rows

    def _map_dep_rows(self) -> Tuple[Tuple[int, ...], ...]:
        ptr = self.dep_ptr
        dep_ids = self.dep_ids
        n = len(self.gpus)
        none: Tuple[int, ...] = ()
        rows = [none] * n
        dense = isinstance(self.task_ids, range)
        row_of: Dict[int, int] = {}
        if not dense:
            row_of = self._row_of_id()
        elif dep_ids and (min(dep_ids) < 0 or max(dep_ids) >= n):
            row_of = dict(zip(self.task_ids, self.task_ids))
        for row in range(n):
            start = ptr[row]
            end = ptr[row + 1]
            if end > start:
                deps = dep_ids[start:end]
                if row_of:
                    unknown = [d for d in deps if d not in row_of]
                    if unknown:
                        raise PlanError(
                            f"task {self.labels[row]}: unknown deps "
                            f"{sorted(set(unknown))}"
                        )
                    if not dense:
                        deps = [row_of[d] for d in deps]
                rows[row] = tuple(deps)
        return tuple(rows)

    def _row_of_id(self) -> Dict[int, int]:
        row_of: Dict[int, int] = {}
        for row, tid in enumerate(self.task_ids):
            if tid in row_of:
                raise PlanError(f"duplicate task id {tid}")
            row_of[tid] = row
        return row_of

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check every row, id uniqueness, dependency closure,
        collective completeness and acyclicity."""
        self._check_rows()
        deps = self.dep_rows()
        # Stream edges always point to a later row, so when every
        # dependency does too, row order is a topological order.
        forward = False
        for row, row_deps in enumerate(deps):
            if row_deps and max(row_deps) >= row:
                if row in row_deps:
                    raise PlanError(
                        f"task {self.labels[row]}: depends on itself"
                    )
                forward = True
        self._check_collectives_complete()
        if forward:
            self._check_acyclic(deps)

    def _check_rows(self) -> None:
        # The per-task checks ComputeTask/CommTask run on construction,
        # for rows a builder appended without building task objects.
        labels = self.labels
        ids = self.task_ids
        if not isinstance(ids, range):
            for row, tid in enumerate(ids):
                if tid < 0:
                    raise PlanError(f"task {labels[row]}: negative id")
        gpus = self.gpus
        if gpus and min(gpus) < 0:
            row = next(r for r, gpu in enumerate(gpus) if gpu < 0)
            raise PlanError(f"task {labels[row]}: negative gpu index")
        for row, category in enumerate(self.categories):
            if category is _COMM:
                op = self.ops[self.refs[row]]
                if gpus[row] not in op.participants:
                    raise PlanError(
                        f"comm task {labels[row]}: gpu {gpus[row]} not a "
                        f"participant of {op.key}"
                    )
            elif self.kernels[self.refs[row]] is None:
                raise PlanError(f"compute task {labels[row]}: kernel required")

    def _check_collectives_complete(self) -> None:
        # Every collective op must have exactly one rank task per
        # participant; a missing rank would hang the rendezvous at
        # simulation time, so catch it at build time.
        posted: List[List[int]] = [[] for _ in self.ops]
        for row, category in enumerate(self.categories):
            if category is _COMM:
                posted[self.refs[row]].append(self.gpus[row])
        for op, gpus in zip(self.ops, posted):
            expected = sorted(op.participants)
            if sorted(gpus) != expected:
                raise PlanError(
                    f"collective {op.key}: rank tasks {sorted(gpus)} do not "
                    f"match participants {expected}"
                )

    def _check_acyclic(self, deps: Sequence[Tuple[int, ...]]) -> None:
        # Kahn's algorithm over the explicit deps plus the implicit
        # stream-order edges.
        n = len(deps)
        successors: List[List[int]] = [[] for _ in range(n)]
        indegree = [0] * n
        prev_in_stream: Dict[int, int] = {}
        for row, sid in enumerate(self.stream_ids):
            for dep in deps[row]:
                successors[dep].append(row)
                indegree[row] += 1
            if sid in prev_in_stream:
                successors[prev_in_stream[sid]].append(row)
                indegree[row] += 1
            prev_in_stream[sid] = row
        ready = [row for row in range(n) if indegree[row] == 0]
        seen = 0
        while ready:
            row = ready.pop()
            seen += 1
            for succ in successors[row]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if seen != n:
            stuck = [
                self.task_ids[row] for row in range(n) if indegree[row] > 0
            ]
            raise PlanError(
                f"plan {self.name}: dependency cycle involving task ids "
                f"{sorted(stuck)[:10]}"
            )

    def __repr__(self) -> str:
        return f"ExecutionPlan(name={self.name!r}, num_tasks={self.num_tasks})"


class PlanBuilder:
    """Incremental construction of an :class:`ExecutionPlan`.

    The builder hands out dense task ids and keeps per-stream program
    order implicitly (insertion order). Compute rows enter through one
    chain appender, :meth:`add_chain`, of which :meth:`add_compute` is
    the one-kernel case; collective helpers emit one rank row per
    participant sharing a single :class:`CollectiveOp`. Rows go
    straight into the plan's columns; :meth:`build` validates them
    once.
    """

    def __init__(self, name: str):
        self.name = name
        self._plan = ExecutionPlan(name)
        self._collective_seq = 0
        self._kernel_index: Dict[KernelSpec, int] = {}
        self._op_index: Dict[str, int] = {}
        self._stream_index: Dict[Tuple[int, str], int] = {}
        #: id(chain) -> (chain, kernel refs, {gpu: row labels}). The
        #: entry holds the chain, so no other object can take its id
        #: while the builder lives.
        self._chains: Dict[
            int, Tuple[Sequence[KernelSpec], List[int], Dict[int, List[str]]]
        ] = {}
        self.metadata: Dict[str, object] = {}

    def _stream_id(self, gpu: int, stream: str) -> int:
        key = (gpu, stream)
        sid = self._stream_index.get(key)
        if sid is None:
            keys = self._plan.stream_keys
            sid = self._stream_index[key] = len(keys)
            keys.append(key)
        return sid

    def _kernel_ref(self, kernel: KernelSpec) -> int:
        ref = self._kernel_index.get(kernel)
        if ref is None:
            kernels = self._plan.kernels
            ref = self._kernel_index[kernel] = len(kernels)
            # The one place plan kernels are interned: value-equal specs
            # across plans become one object, so identity-keyed memos
            # downstream hit and plans share their kernel objects.
            if kernel is not None:
                kernel = intern_kernel(kernel)
            kernels.append(kernel)
        return ref

    def _op_ref(self, op: CollectiveOp) -> int:
        ref = self._op_index.get(op.key)
        if ref is None:
            ops = self._plan.ops
            ref = self._op_index[op.key] = len(ops)
            ops.append(op)
        return ref

    def _append_deps(self, deps: Iterable[int]) -> None:
        """Close the CSR entry of the row just appended."""
        dep_ids = self._plan.dep_ids
        if deps:
            start = len(dep_ids)
            dep_ids.extend(deps)
            if len(dep_ids) - start > 1:
                # A dependency set: drop repeats, keep first-use order.
                dep_ids[start:] = dict.fromkeys(dep_ids[start:])
        self._plan.dep_ptr.append(len(dep_ids))

    def _append_rank(
        self,
        gpu: int,
        stream: str,
        label: str,
        phase: str,
        ref: int,
        deps: Iterable[int],
    ) -> int:
        plan = self._plan
        tid = len(plan.gpus)
        plan.gpus.append(gpu)
        plan.stream_ids.append(self._stream_id(gpu, stream))
        plan.labels.append(label)
        plan.phases.append(phase)
        plan.categories.append(_COMM)
        plan.refs.append(ref)
        self._append_deps(deps)
        return tid

    def add_chain(
        self,
        gpu: int,
        kernels: Sequence[KernelSpec],
        deps: Iterable[int] = (),
        stream: str = COMPUTE_STREAM,
        phase: str = "",
        labels: Optional[Sequence[str]] = None,
    ) -> range:
        """Append ``kernels`` back to back on one stream of ``gpu``.

        Only the first row carries ``deps``; stream order chains the
        rest. Rows are labelled ``g{gpu}.{kernel.name}`` unless
        ``labels`` names each one. Returns the rows' task ids.

        A chain's kernel refs, and its default labels per GPU, are
        resolved on its first append and reused whenever the same
        chain object comes back (a layer on every GPU, a pipeline
        stage for every microbatch), so a chain must not be mutated
        once appended; the layer builders hand out tuples.
        """
        if labels is None:
            entry = self._chains.get(id(kernels))
            if entry is None:
                entry = self._chains[id(kernels)] = (
                    kernels,
                    [self._kernel_ref(kernel) for kernel in kernels],
                    {},
                )
            refs = entry[1]
            labels = entry[2].get(gpu)
            if labels is None:
                labels = entry[2][gpu] = [
                    f"g{gpu}.{kernel.name}" for kernel in kernels
                ]
        else:
            if len(labels) != len(kernels):
                raise PlanError(
                    f"{len(labels)} labels for a chain of "
                    f"{len(kernels)} kernels"
                )
            refs = [self._kernel_ref(kernel) for kernel in kernels]
        count = len(refs)
        if not count:
            raise PlanError(f"gpu {gpu}: empty kernel chain")
        plan = self._plan
        first = len(plan.gpus)
        plan.gpus.extend(repeat(gpu, count))
        plan.stream_ids.extend(repeat(self._stream_id(gpu, stream), count))
        plan.labels.extend(labels)
        plan.phases.extend(repeat(phase, count))
        plan.categories.extend(repeat(_COMPUTE, count))
        plan.refs.extend(refs)
        self._append_deps(deps)
        plan.dep_ptr.extend(repeat(plan.dep_ptr[-1], count - 1))
        return range(first, first + count)

    def add_compute(
        self,
        gpu: int,
        kernel: KernelSpec,
        deps: Iterable[int] = (),
        stream: str = COMPUTE_STREAM,
        phase: str = "",
        label: Optional[str] = None,
    ) -> int:
        """Append one compute kernel (a one-kernel chain); returns its
        task id."""
        return self.add_chain(
            gpu,
            (kernel,),
            deps,
            stream,
            phase,
            labels=(label or f"g{gpu}.{kernel.name}",),
        ).start

    def add_collective(
        self,
        kind: CollectiveKind,
        payload_bytes: float,
        participants: Sequence[int],
        deps_by_gpu: Optional[Dict[int, Iterable[int]]] = None,
        stream: str = COMM_STREAM,
        phase: str = "",
        label: Optional[str] = None,
    ) -> Dict[int, int]:
        """Append one collective across ``participants``.

        ``deps_by_gpu`` maps a participant to its rank's dependencies;
        a key that is not a participant is a wiring error. Returns a
        mapping gpu -> rank task id so callers can wire per-rank
        dependencies on completion.
        """
        op = self.begin_collective(kind, payload_bytes, participants, label)
        deps_by_gpu = deps_by_gpu or {}
        for gpu in deps_by_gpu:
            if gpu not in op.participants:
                raise PlanError(
                    f"collective {op.key}: deps_by_gpu key {gpu} is not "
                    f"a participant of {list(op.participants)}"
                )
        out: Dict[int, int] = {}
        for gpu in op.participants:
            out[gpu] = self.add_collective_rank(
                op,
                gpu,
                deps=deps_by_gpu.get(gpu, ()),
                stream=stream,
                phase=phase,
                label=label or f"g{gpu}.{kind.value}",
            )
        return out

    def begin_collective(
        self,
        kind: CollectiveKind,
        payload_bytes: float,
        participants: Sequence[int],
        label: Optional[str] = None,
    ) -> CollectiveOp:
        """Create a collective op without emitting any rank task yet.

        Use together with :meth:`add_collective_rank` when the ranks'
        tasks must land at *different positions* of their streams — e.g.
        a pipeline send enqueued right after the producing compute while
        the matching recv is enqueued just before the consuming compute.
        """
        self._collective_seq += 1
        key = f"{self.name}/{label or kind.value}#{self._collective_seq}"
        return CollectiveOp(
            key=key,
            kind=kind,
            payload_bytes=payload_bytes,
            participants=tuple(participants),
        )

    def add_collective_rank(
        self,
        op: CollectiveOp,
        gpu: int,
        deps: Iterable[int] = (),
        stream: str = COMM_STREAM,
        phase: str = "",
        label: Optional[str] = None,
    ) -> int:
        """Emit one rank's participation in a collective begun with
        :meth:`begin_collective`; returns the rank task id."""
        return self._append_rank(
            gpu,
            stream,
            label or f"g{gpu}.{op.kind.value}",
            phase,
            self._op_ref(op),
            deps,
        )

    def build(self) -> ExecutionPlan:
        """Finalize and validate the plan."""
        rows = self._plan
        plan = ExecutionPlan(self.name, metadata=dict(self.metadata))
        plan.task_ids = range(len(rows.gpus))
        plan.gpus = list(rows.gpus)
        plan.stream_ids = list(rows.stream_ids)
        plan.labels = list(rows.labels)
        plan.phases = list(rows.phases)
        plan.categories = list(rows.categories)
        plan.refs = list(rows.refs)
        plan.dep_ptr = list(rows.dep_ptr)
        plan.dep_ids = list(rows.dep_ids)
        plan.kernels = list(rows.kernels)
        plan.ops = list(rows.ops)
        plan.stream_keys = list(rows.stream_keys)
        plan.validate()
        return plan
