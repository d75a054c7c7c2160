"""In-memory span recorder that wraps the program's layer entry points.

The benchmark traces the simulator from the outside: :func:`install`
replaces module attributes (functions and class methods) with thin
wrappers that record one span per call -- layer, name, start, end,
parent span and thread -- into a list held in memory. Nothing under
``src/`` is edited, and the wrappers return the wrapped call's result
unchanged, so simulated state cannot be touched.

Three details matter:

* ``simulate``, ``compute_metrics`` and ``check_feasibility`` are
  imported by name into :mod:`repro.core.experiment`, so they are
  patched in that module's namespace, not where they are defined;
  ``request_json`` and ``outcome_to_payload`` are likewise patched both
  where they live and where :mod:`repro.fleet.worker` bound them.
* A span's self time is its duration minus the time its child spans
  cover. Spans nest per thread (a thread-local stack), so the fleet's
  coordinator, worker and client threads each keep their own tree.
* :meth:`Tracer.chrome_events` writes the spans in the event shape
  ``repro.profiler.chrome_trace`` uses for simulated timelines
  (``ph: "X"``, microsecond ``ts``/``dur``), with ``pid`` = process and
  ``tid`` = layer, so host and simulated timelines open in one viewer.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int
    layer: str
    name: str
    start: float
    end: float
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span and counter registry for one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.active = False
        self.origin = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable,
        on_exit: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call while the tracer is active.

        ``on_exit(tracer, result, args, kwargs)`` runs after every call,
        with ``result=None`` when the call raised, to count what the
        call did (bytes, hits, events, polls).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(sid, parent, layer, name, start, end,
                         threading.get_ident())
                )
                if on_exit is not None:
                    on_exit(self, result, args, kwargs)

        return traced

    def patch(self, owner, attr: str, layer: str, on_exit=None) -> None:
        """Replace ``owner.attr`` (a module or class) with a traced wrapper."""
        fn = getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        setattr(owner, attr, self.wrap(layer, name, fn, on_exit))

    def self_times(self) -> Dict[str, float]:
        """Self time per layer, summed over every span of that layer."""
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent:
                covered[span.parent] += span.duration
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.layer] += span.duration - covered[span.sid]
        return dict(totals)

    def chrome_events(self) -> List[dict]:
        """Spans as chrome-trace events (pid = process, tid = layer)."""
        pid = os.getpid()
        layers = sorted({span.layer for span in self.spans})
        tids = {layer: index + 1 for index, layer in enumerate(layers)}
        events = [
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
             "args": {"name": layer}}
            for layer, tid in tids.items()
        ]
        for span in sorted(self.spans, key=lambda s: (s.start, s.sid)):
            events.append(
                {
                    "name": span.name,
                    "cat": span.layer,
                    "ph": "X",
                    "ts": (span.start - self.origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": pid,
                    "tid": tids[span.layer],
                    "args": {"sid": span.sid, "parent": span.parent,
                             "thread": span.thread},
                }
            )
        return events


# ----------------------------------------------------------------------
# Counting hooks (run after every traced call)
# ----------------------------------------------------------------------


def _count_infeasible(tracer, report, args, kwargs) -> None:
    if report is not None and not report.fits:
        tracer.counts["feasibility.infeasible"] += 1


def _count_events(tracer, result, args, kwargs) -> None:
    sim = getattr(tracer._local, "sim", None)
    if sim is not None:
        tracer.counts["drain.events"] += sim.stats.events
        tracer._local.sim = None


def _count_get(tracer, result, args, kwargs) -> None:
    tracer.counts["cache.gets"] += 1
    if result is not None:
        tracer.counts["cache.hits"] += 1


def _count_put(tracer, result, args, kwargs) -> None:
    tracer.counts["cache.puts"] += 1


def _count_bytes(tracer, result, args, kwargs) -> None:
    if os.path.exists(args[0]):
        tracer.counts["cache.bytes_written"] += os.path.getsize(args[0])


def _count_request(tracer, result, args, kwargs) -> None:
    if "/outcome/" in args[0]:
        tracer.counts["fleet.outcome_polls"] += 1


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    import repro.core.experiment as experiment
    import repro.exec.cache as cache
    import repro.exec.executors as executors
    import repro.exec.planning as planning
    import repro.fleet.protocol as protocol
    import repro.fleet.worker as worker
    import repro.power.sampling as sampling
    import repro.scenario.runner as runner
    import repro.scenario.spec as spec
    import repro.sim.engine as engine

    make_simulator = engine.make_simulator

    @functools.wraps(make_simulator)
    def remember_simulator(*args, **kwargs):
        sim = make_simulator(*args, **kwargs)
        tracer._local.sim = sim  # read back when its simulate() returns
        return sim

    engine.make_simulator = remember_simulator

    tracer.patch(planning.Planner, "plan_for", "plan")
    tracer.patch(planning.Planner, "prepared_for", "prep")
    tracer.patch(experiment, "simulate", "drain", _count_events)
    tracer.patch(experiment, "check_feasibility", "feasibility",
                 _count_infeasible)
    tracer.patch(experiment, "compute_metrics", "metrics")
    tracer.patch(sampling.PowerSampler, "sample", "sampling")
    # execute_job calls the name bound in the executors module.
    tracer.patch(executors, "run_experiment", "experiment")
    tracer.patch(executors.Executor, "run", "executor")
    tracer.patch(cache, "outcome_to_payload", "serialize")
    tracer.patch(worker, "outcome_to_payload", "serialize")
    tracer.patch(cache, "write_json_atomic", "cache.write", _count_bytes)
    tracer.patch(cache.ResultCache, "get", "cache.get", _count_get)
    tracer.patch(cache.ResultCache, "load_payload", "cache.get", _count_get)
    tracer.patch(cache.ResultCache, "put", "cache.put", _count_put)
    tracer.patch(cache.ResultCache, "put_payload", "cache.put", _count_put)
    tracer.patch(spec.SweepSpec, "compile", "scenario")
    tracer.patch(runner, "render_generic", "render")
    tracer.patch(protocol, "request_json", "fleet", _count_request)
    tracer.patch(worker, "request_json", "fleet", _count_request)
