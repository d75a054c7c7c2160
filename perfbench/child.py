"""One repetition of one benchmark workload, run in a fresh interpreter.

``run.py`` starts this script once per repetition, because the program
keeps process-wide memos (the ``lru_cache``d evaluation grid, the
planner's plan and prepared-sim caches, the kernel intern table): a
second repetition in the same process would measure a warm program.

    PYTHONPATH=src python3 perfbench/child.py --workload grid_cold --seed 0 \\
        --executor serial --scratch DIR --out DIR/record.json \\
        --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"

The script runs the workload the way a user's ``scenario run`` does,
marks the first submission to the execution service (the end of
set-up) and the rendered artifact (the end of the measured section),
checks every cell's result payload, and writes one JSON record to
``--out``. With ``--trace 1`` it wraps each layer's entry points (see
``tracing.py``) and adds the per-layer numbers and a chrome trace.
With ``--setup-only`` it stops at the first submission.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import threading
import time
from pathlib import Path

#: The paper's headline numbers (percent): mean / max compute slowdown
#: under overlap and mean / max sequential-vs-overlapped gap.
PAPER_HEADLINE = {
    "mean_compute_slowdown": 18.9,
    "max_compute_slowdown": 40.0,
    "mean_sequential_penalty": 10.2,
    "max_sequential_penalty": 26.6,
}

#: ``runs`` of the power-cap sweep (Fig. 9 itself uses 1); five repeats
#: per cell make each pooled job long enough that the pool's start-up
#: and pickling are a fraction, not the whole, of a cell.
POWERCAP_RUNS = 5

#: Scenarios whose full (non-quick) cells the fleet workload drains.
FLEET_SCENARIOS = ("degrade_straggler", "degrade_linkfail", "fig9")

GOLDEN_GRID = Path("tests/golden/grid.json")
GOLDEN_REL_TOL = 1e-9


class SetupDone(Exception):
    """Raised at the first submission of a ``--setup-only`` run."""


class Marks:
    """Timestamps and the submitted batch, captured at the service."""

    def __init__(self, setup_only: bool):
        self.setup_only = setup_only
        self.notes: dict = {}
        self.first_submit = None
        self.end = None
        self.root_end = None
        self.jobs = None
        self.outcomes = None

    def finish(self) -> None:
        """The artifact is rendered: the measured section ends here."""
        self.end = time.monotonic()
        self.root_end = time.perf_counter()

    def install(self) -> None:
        from repro.exec.service import ExecutionService

        run_jobs = ExecutionService.run_jobs
        marks = self

        def marked_run_jobs(service, jobs):
            if marks.first_submit is None:
                marks.first_submit = time.monotonic()
                if marks.setup_only:
                    raise SetupDone()
            jobs = list(jobs)
            outcomes = run_jobs(service, jobs)
            marks.jobs, marks.outcomes = jobs, outcomes
            return outcomes

        ExecutionService.run_jobs = marked_run_jobs


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def grid_cold(seed: int, executor: str, scratch: Path, marks: Marks) -> None:
    """The quick Figs. 4-6 grid, serial, on an empty on-disk cache."""
    from repro.exec.service import configure
    from repro.scenario.runner import run_scenario

    configure(jobs=1, cache=True, cache_dir=str(scratch / "cache"),
              executor="serial")
    run_scenario("fig4", quick=True, overrides={"base_seed": seed})
    marks.finish()


def powercap_pool(seed: int, executor: str, scratch: Path, marks: Marks) -> None:
    """The full Fig. 9 sweep, pooled over two workers, no cache."""
    from repro.exec.service import configure
    from repro.scenario.runner import run_scenario

    marks.notes["runs"] = POWERCAP_RUNS
    configure(jobs=2 if executor == "process" else 1, cache=False,
              executor=executor)
    run_scenario(
        "fig9", quick=False,
        overrides={"runs": POWERCAP_RUNS, "base_seed": seed},
    )
    marks.finish()


def fleet_drain(seed: int, executor: str, scratch: Path, marks: Marks) -> None:
    """Degradation + Fig. 9 cells through an in-process loopback fleet."""
    from repro.core.sweep import GridRow
    from repro.exec.cache import ResultCache
    from repro.exec.executors import RemoteExecutor, SerialExecutor
    from repro.exec.service import ExecutionService
    from repro.fleet.coordinator import FleetCoordinator
    from repro.fleet.worker import FleetWorker
    from repro.scenario import runner
    from repro.scenario.registry import get_scenario

    jobs = []
    for name in FLEET_SCENARIOS:
        spec = get_scenario(name).spec(quick=False)
        jobs.extend(spec.with_base_overrides({"base_seed": seed}).compile())
    coordinator = worker = thread = None
    if executor == "fleet":
        coordinator = FleetCoordinator(cache=ResultCache(scratch / "cache"))
        coordinator.start()
        worker = FleetWorker(coordinator.url)
        thread = threading.Thread(target=worker.run, name="fleet-worker",
                                  daemon=True)
        thread.start()
        service = ExecutionService(executor=RemoteExecutor(coordinator.url))
    else:
        service = ExecutionService(executor=SerialExecutor())
    try:
        outcomes = service.run_jobs(jobs)
        rows = [GridRow(o.job.config, o.result, o.skipped_reason)
                for o in outcomes]
        runner.render_generic(runner.generic_rows(rows))
        marks.finish()
    finally:
        if coordinator is not None:
            # The queue is drained once every outcome resolved (or
            # nothing was submitted): flip to "drained" so the worker
            # exits, then stop the server.
            coordinator.serve_until_drained(timeout=30.0, grace=0.3)
            thread.join(timeout=30.0)
            marks.notes["lease_waits"] = worker.stats.waits
            marks.notes["worker_alive"] = thread.is_alive()


WORKLOADS = {
    "grid_cold": grid_cold,
    "powercap_pool": powercap_pool,
    "fleet_drain": fleet_drain,
}


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def _finite(value) -> bool:
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def _golden_close(expected, actual) -> bool:
    if isinstance(expected, dict):
        return sorted(expected) == sorted(actual) and all(
            _golden_close(expected[k], actual[k]) for k in expected
        )
    if isinstance(expected, float) or isinstance(actual, float):
        return math.isclose(expected, actual, rel_tol=GOLDEN_REL_TOL,
                            abs_tol=1e-15)
    return expected == actual


def _golden_record(job, outcome) -> dict:
    """A grid cell in the shape ``tests/golden/grid.json`` stores."""
    from repro.core.modes import ExecutionMode

    record = {"cell": job.config.describe(),
              "skipped": outcome.skipped_reason}
    if outcome.ran:
        metrics = outcome.result.metrics
        overlapped = outcome.result.modes[ExecutionMode.OVERLAPPED]
        record.update(
            {
                "compute_slowdown": metrics.compute_slowdown,
                "overlap_ratio": metrics.overlap_ratio,
                "e2e_overlapped_ms": metrics.e2e_overlapping_s * 1e3,
                "avg_power_w": overlapped.avg_power_w,
                "peak_power_w": overlapped.peak_power_w,
                "energy_j": overlapped.energy_j,
            }
        )
    return json.loads(json.dumps(record))


def check_cells(workload: str, seed: int, jobs, outcomes) -> dict:
    """Per-cell output check; returns digests, failures and references.

    A cell fails when its payload does not round-trip, holds a
    non-finite or non-positive time, misses a requested mode, or (grid
    only) disagrees with the golden snapshot: every value at seed 0,
    the feasibility pattern at any seed, since memory fit does not
    depend on the jitter seed.
    """
    from repro.core.sweep import GridRow, summarize_slowdowns
    from repro.exec.cache import outcome_from_payload, outcome_to_payload

    golden = None
    if workload == "grid_cold":
        golden = json.loads(GOLDEN_GRID.read_text())
        if len(golden) != len(jobs):
            golden = None
    digests, failed, infeasible = [], 0, 0
    for index, (job, outcome) in enumerate(zip(jobs, outcomes)):
        payload = outcome_to_payload(outcome)
        text = json.dumps(payload, sort_keys=True)
        digests.append([job.cache_key(),
                        hashlib.sha256(text.encode()).hexdigest()])
        ok = outcome_from_payload(job, json.loads(text)) is not None
        ok = ok and _finite(payload)
        if outcome.ran:
            modes = payload["result"]["modes"]
            ok = ok and sorted(modes) == sorted(m.value for m in job.modes)
            ok = ok and all(m["e2e_s"] > 0 for m in modes.values())
        else:
            infeasible += 1
        if workload == "grid_cold":
            if golden is None:
                ok = False
            else:
                record = _golden_record(job, outcome)
                expected = golden[index]
                ok = ok and record["cell"] == expected["cell"]
                ok = ok and bool(record["skipped"]) == bool(
                    expected["skipped"])
                if seed == 0:
                    ok = ok and _golden_close(expected, record)
        failed += not ok
    result = {
        "cells": len(jobs),
        "failed": failed + (len(jobs) - len(outcomes)),
        "infeasible": infeasible,
        "digests": digests,
    }
    if workload == "grid_cold":
        headline = summarize_slowdowns(
            GridRow(job.config, o.result, o.skipped_reason)
            for job, o in zip(jobs, outcomes)
        )
        result["paper_gap_pp"] = sum(
            abs(headline[k] * 100.0 - v) for k, v in PAPER_HEADLINE.items()
        ) / len(PAPER_HEADLINE)
    return result


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def measure_pool_children(pool_peaks_kb: list) -> None:
    """Record each pool worker's peak RSS just before the pool shuts down."""
    import repro.exec.executors as executors

    base = executors.ProcessPoolExecutor

    class MeasuredPool(base):
        def shutdown(self, wait=True, *, cancel_futures=False):
            for pid in list(getattr(self, "_processes", None) or {}):
                pool_peaks_kb.append(_vm_hwm_kb(pid))
            super().shutdown(wait=wait, cancel_futures=cancel_futures)

    executors.ProcessPoolExecutor = MeasuredPool


# ----------------------------------------------------------------------


def layer_numbers(tracer, root_start: float, root_end: float) -> dict:
    """Per-layer raw numbers from one traced run's spans and counters."""
    from repro.exec.planning import default_planner

    selfs = tracer.self_times()
    counts = tracer.counts
    main = threading.get_ident()
    top_level = sum(
        s.duration for s in tracer.spans
        if s.parent == 0 and s.thread == main
        and s.start >= root_start and s.end <= root_end
    )
    stats = default_planner().stats()
    calls = {}
    for span in tracer.spans:
        calls[span.layer] = calls.get(span.layer, 0) + 1
    return {
        "self_s": selfs,
        "calls": calls,
        "counts": dict(counts),
        "busy_s": sum(s.duration for s in tracer.spans
                      if s.layer == "experiment"),
        "root_s": root_end - root_start,
        "unattributed_s": (root_end - root_start) - top_level,
        "planner": {"plans": stats["plans"],
                    "prepared": stats["prepared_sims"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--executor", required=True,
                        choices=("serial", "process", "fleet"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent at spawn")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    scratch = Path(args.scratch)
    from repro.scenario.registry import load_catalog

    load_catalog()
    marks = Marks(args.setup_only)
    marks.install()
    pool_peaks_kb: list = []
    measure_pool_children(pool_peaks_kb)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.active = True
    root_start = time.perf_counter()
    try:
        WORKLOADS[args.workload](args.seed, args.executor, scratch, marks)
    except SetupDone:
        pass
    if tracer is not None:
        tracer.active = False

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "executor": args.executor,
        "trace": args.trace,
        "setup_s": marks.first_submit - args.spawned_at,
        "first_submit_at": marks.first_submit,
        "notes": marks.notes,
    }
    if not args.setup_only:
        record["end_at"] = marks.end
        record["wall_s"] = marks.end - marks.first_submit
        record.update(check_cells(args.workload, args.seed,
                                  marks.jobs, marks.outcomes))
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record["peak_rss_mb"] = (self_kb + sum(pool_peaks_kb)) / 1024.0
    if tracer is not None:
        record["layers"] = layer_numbers(tracer, root_start, marks.root_end)
        (scratch / "trace.json").write_text(json.dumps(tracer.chrome_events()))
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
