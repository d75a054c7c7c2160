#!/usr/bin/env python
"""Engine hot-path benchmark: reference vs incremental engine.

Measures two things per engine and records them in
``BENCH_engine.json`` so the repo carries a perf trajectory across
PRs:

* **single-cell event throughput** — one representative contended cell
  (H100, GPT-3 2.7B, FSDP, jitter + governor active) simulated by each
  engine; reports engine events/second.
* **quick-grid cells/sec** — the full Figs. 4-6 quick evaluation grid
  (48 cells x 3 modes) run serially through the execution service with
  caching disabled, once per engine. Each engine's pass starts from a
  fresh planner whose plans are re-warmed outside the timer, so both
  passes time the same prepared-sim builds.

The engines are ``reference`` (full recompute, the correctness
oracle) and ``incremental`` (the bit-exact default).

``--profile`` wraps each engine's single-cell run in cProfile and
prints the top 20 functions by cumulative time, for hot-path work.

``--verify`` instead runs the gate cells end-to-end under both
engines and exits nonzero unless every cell's full result payloads are
byte-identical (the CI equivalence gate): an FSDP and a pipeline
quick-grid cell, Fig. 9's most throttled cell (100 W cap), where the
DVFS governor moves the clock on most power updates, and a thermally
throttled cell, where the governor's ramp runs into the thermal
ceiling and is clamped.

Timed sections run with cyclic GC suspended (the ``timeit`` module's
convention, applied identically to both engines): collection scheduling
is allocation-count driven, so whether a major sweep lands inside a
timed pass is random noise, not engine cost. Records carry
``gc_paused: true``.

This file is a standalone script, not a pytest-benchmark module: run
``python benchmarks/bench_engine_hotpath.py [--quick]``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.experiment import SIM_ENGINE_ENV, ExperimentConfig  # noqa: E402
from repro.exec.executors import SerialExecutor  # noqa: E402
from repro.exec.job import SimJob  # noqa: E402
from repro.exec.planning import (  # noqa: E402
    default_planner,
    reset_default_planner,
)
from repro.exec.service import ExecutionService  # noqa: E402
from repro.exec.cache import result_to_payload  # noqa: E402
from repro.harness.figures.grid import grid_spec  # noqa: E402
from repro.sim.config import SimConfig  # noqa: E402
from repro.sim.engine import (  # noqa: E402
    make_simulator,
    reset_shared_evaluators,
)
from repro.sim.perturb import PerturbationSpec  # noqa: E402
from repro.sim.prep import prep_stats  # noqa: E402

#: The benchmarked engines (``--verify`` pins them byte-identical).
ENGINES = ("reference", "incremental")

#: The representative contended cell for the event-throughput probe.
SINGLE_CELL = ExperimentConfig(
    gpu="H100",
    model="gpt3-2.7b",
    batch_size=16,
    strategy="fsdp",
    jitter_sigma=0.02,
)

#: The cells the CI equivalence gate checks: one FSDP and one pipeline
#: quick-grid cell (the pipeline builder posts its point-to-point
#: transfers rank by rank, at different stream positions); Fig. 9's
#: 100 W cell — the most throttled one, where the incremental engine's
#: inline free-running utilisation replaces the reference's per-clock
#: memo on nearly every update; and an uncapped cell with GPU 0
#: thermally throttled, where the governor's ramp keeps hitting the
#: ceiling (a quarter of the ticks at seed 0) and the incremental
#: engine's inline tick copies the clamp of
#: ``Simulator._governor_tick``; and a jittered FSDP cell with GPU 1
#: straggling for the whole run and every link flaky from 10 to 30 ms,
#: where the incremental engine's same-stream hand-off runs under both
#: windows and falls back on every finish that wakes another stream.
VERIFY_CELLS = (
    ExperimentConfig(
        gpu="A100",
        model="gpt3-xl",
        batch_size=8,
        strategy="fsdp",
        jitter_sigma=0.02,
        runs=1,
    ),
    ExperimentConfig(
        gpu="A100",
        model="gpt3-xl",
        batch_size=8,
        strategy="pipeline",
        jitter_sigma=0.02,
        runs=1,
    ),
    ExperimentConfig(
        gpu="A100",
        model="gpt3-2.7b",
        batch_size=8,
        strategy="fsdp",
        power_limit_w=100.0,
        runs=1,
    ),
    ExperimentConfig(
        gpu="A100",
        model="gpt3-2.7b",
        batch_size=8,
        strategy="fsdp",
        perturbations=(
            PerturbationSpec(
                kind="thermal_throttle", target="gpu:0", magnitude=0.3
            ),
        ),
        runs=1,
    ),
    ExperimentConfig(
        gpu="A100",
        model="gpt3-xl",
        batch_size=8,
        strategy="fsdp",
        jitter_sigma=0.02,
        perturbations=(
            PerturbationSpec(
                kind="straggler_rank", target="gpu:1", magnitude=0.5
            ),
            PerturbationSpec(
                kind="flaky_link", target="all", start_s=0.010,
                duration_s=0.020, magnitude=0.3,
            ),
        ),
        runs=1,
    ),
)


@contextlib.contextmanager
def _paused_gc():
    """Suspend cyclic GC around a timed section (timeit's convention).

    Collection scheduling is driven by process-global allocation
    counters, so whether a gen-2 sweep (hundreds of ms against the
    planner's persistent caches) lands inside a timed pass is
    essentially random — pausing it measures the code, not the
    collector.  Both engines are paused identically; the record carries
    ``gc_paused`` so the numbers are comparable across revisions.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@contextlib.contextmanager
def _engine_env(engine: str):
    """Route ExperimentConfig simulations through one engine."""
    previous = os.environ.get(SIM_ENGINE_ENV)
    os.environ[SIM_ENGINE_ENV] = engine
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(SIM_ENGINE_ENV, None)
        else:
            os.environ[SIM_ENGINE_ENV] = previous


def bench_single_cell(repeats: int, profile: bool = False) -> dict:
    """Event throughput of one contended simulation, per engine."""
    planner = default_planner()
    node = planner.node_for(SINGLE_CELL)
    plan = planner.plan_for(SINGLE_CELL, overlap=True)
    cost_model = planner.cost_model_for(SINGLE_CELL)
    out: dict = {"cell": SINGLE_CELL.describe(), "repeats": repeats}
    for engine in ENGINES:
        # Every engine starts with cold process-wide evaluator memos so
        # the recorded speedups compare engines, not cache inheritance
        # from whichever engine ran first. The first construction after
        # the reset therefore *builds* the engine's PreparedSim (cold
        # setup); every later construction fetches it from the prep
        # cache (warm setup) — both are recorded so the prepared-layer
        # amortization is a gateable series, not folded into noise.
        reset_shared_evaluators()
        config = SimConfig(
            jitter_sigma=0.02, seed=1, reference_engine=engine == "reference"
        )
        prep_before = prep_stats()
        best = None
        setup_times = []
        events = 0
        with _paused_gc():
            for _ in range(repeats):
                t0 = time.perf_counter()
                sim = make_simulator(node, plan, config, cost_model=cost_model)
                t1 = time.perf_counter()
                sim.run()
                elapsed = time.perf_counter() - t1
                setup_times.append(t1 - t0)
                best = elapsed if best is None else min(best, elapsed)
                events = sim.stats.events
            if len(setup_times) == 1:
                # --quick runs once; add one untimed-run construction
                # so the warm-setup series exists in every record.
                t0 = time.perf_counter()
                make_simulator(node, plan, config, cost_model=cost_model)
                setup_times.append(time.perf_counter() - t0)
        prep_after = prep_stats()
        setup_cold = setup_times[0]
        setup_warm = min(setup_times[1:])
        out[engine] = {
            "seconds": best,
            "setup_cold_s": setup_cold,
            "setup_warm_s": setup_warm,
            "setup_cold_over_warm": (
                setup_cold / setup_warm if setup_warm > 0 else None
            ),
            "drain_s": best,
            "events": events,
            "events_per_s": events / best,
            "prep": {
                "hits": prep_after["hits"] - prep_before["hits"],
                "builds": prep_after["builds"] - prep_before["builds"],
            },
            "gpu_rate_passes": sim.stats.gpu_rate_passes,
            "stale_events": sim.stats.stale_events,
        }
        if profile:
            _profile_engine(engine, node, plan, config, cost_model)
    out["speedup"] = (
        out["incremental"]["events_per_s"] / out["reference"]["events_per_s"]
    )
    return out


def _profile_engine(engine, node, plan, config, cost_model) -> None:
    """cProfile one single-cell run; print top 20 by cumulative time."""
    import cProfile
    import pstats

    sim = make_simulator(node, plan, config, cost_model=cost_model)
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run()
    profiler.disable()
    print(f"--- profile: {engine} (top 20 by cumulative time) ---")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(20)


def _warm_planner(jobs) -> None:
    """Give the process a fresh default planner holding the grid's plans.

    Nodes, plans (both overlap variants) and collective cost models are
    built here, outside any timer, so a timed pass measures simulation,
    not plan construction. The plan builds are identical work for both
    engines and would only dilute the engine-to-engine ratio. Prepared
    sims and the evaluator memos start cold: every pass builds its own.
    """
    reset_shared_evaluators()
    reset_default_planner()
    planner = default_planner()
    for job in jobs:
        planner.node_for(job.config)
        try:
            for overlap in (True, False):
                planner.plan_for(job.config, overlap=overlap)
            planner.cost_model_for(job.config)
        except Exception:
            # Infeasible cells are the service's business to skip.
            continue


def bench_grid() -> dict:
    """Cells/sec on the quick Figs. 4-6 grid, per engine, serial."""
    spec = grid_spec(quick=True)
    jobs = spec.compile()
    out: dict = {"cells": len(jobs), "spec": spec.name}
    for engine in ENGINES:
        # Every pass starts from the same state: a fresh planner with
        # plans re-warmed, and no prepared sim, so both engines time the
        # same prep builds (cells within a pass still share them, which
        # is the product behaviour being measured).
        _warm_planner(jobs)
        planner = default_planner()
        service = ExecutionService(executor=SerialExecutor(), cache=None)
        planner_before = planner.stats()["prepared_sims"]
        with _engine_env(engine), _paused_gc():
            t0 = time.perf_counter()
            outcomes = service.run_jobs(jobs)
            elapsed = time.perf_counter() - t0
        planner_after = planner.stats()["prepared_sims"]
        ran = sum(1 for o in outcomes if o.ran)
        out[engine] = {
            "seconds": elapsed,
            "cells_per_s": len(jobs) / elapsed,
            "simulated": ran,
            "infeasible": len(jobs) - ran,
            # Planner-level PreparedSim reuse across the grid's cells:
            # every hit is a cell whose tables were shared instead of
            # rebuilt.
            "prepared_sims": {
                "hits": planner_after["hits"] - planner_before["hits"],
                "builds": planner_after["builds"] - planner_before["builds"],
            },
        }
    out["speedup"] = (
        out["incremental"]["cells_per_s"] / out["reference"]["cells_per_s"]
    )
    return out


def verify_equivalence() -> bool:
    """Run every gate cell under both engines; True iff all identical."""
    results = [_verify_cell(config) for config in VERIFY_CELLS]
    return all(results)


def _verify_cell(config: ExperimentConfig) -> bool:
    """Run one cell under both engines; True iff bit-identical."""
    job = SimJob(config=config)
    payloads = {}
    for engine in ENGINES:
        with _engine_env(engine):
            outcome = SerialExecutor().run([job])[0]
        if not outcome.ran:
            print(f"verify cell infeasible under {engine}: "
                  f"{outcome.skipped_reason}")
            return False
        payloads[engine] = result_to_payload(outcome.result)
    identical = payloads["reference"] == payloads["incremental"]
    cell = config.describe()
    if identical:
        print(f"engine equivalence OK: {cell} is bit-identical under "
              f"reference and incremental engines")
    else:
        print(f"ENGINE DIVERGENCE on {cell}:")
        ref, inc = payloads["reference"], payloads["incremental"]
        for section in ref:
            if ref[section] != inc[section]:
                print(f"  section {section!r} differs")
                print(f"    reference:   {json.dumps(ref[section])[:200]}")
                print(f"    incremental: {json.dumps(inc[section])[:200]}")
    return identical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="single timing repeat per engine (CI perf-smoke mode)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="single-cell timing repeats, best-of (default: 3)",
    )
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_engine.json"),
        help="where to write the benchmark record",
    )
    parser.add_argument(
        "--skip-grid",
        action="store_true",
        help="only run the single-cell probe (fast local iteration)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="assert reference/incremental equivalence on the gate "
        "cells instead of benchmarking; exit 1 on divergence",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile each engine's single-cell run and print the top "
        "20 functions by cumulative time",
    )
    args = parser.parse_args(argv)

    if args.verify:
        return 0 if verify_equivalence() else 1

    repeats = 1 if args.quick else args.repeats
    record: dict = {
        "schema": 1,
        "generated_by": "benchmarks/bench_engine_hotpath.py",
        "quick": args.quick,
        # Timed sections run with cyclic GC suspended (see _paused_gc).
        "gc_paused": True,
    }
    print(f"single-cell event throughput ({repeats} repeat(s))...")
    record["single_cell"] = bench_single_cell(repeats, profile=args.profile)
    sc = record["single_cell"]
    for engine in ENGINES:
        row = sc[engine]
        print(
            f"  {engine:>11}: {row['events']} events, "
            f"setup {row['setup_cold_s'] * 1e3:.2f} ms cold / "
            f"{row['setup_warm_s'] * 1e3:.2f} ms warm, "
            f"drain {row['drain_s'] * 1e3:.1f} ms "
            f"({row['events_per_s']:.0f} events/s; prep "
            f"{row['prep']['hits']} hit(s), "
            f"{row['prep']['builds']} build(s))"
        )
    print(f"  speedup: {sc['speedup']:.2f}x incremental")

    if not args.skip_grid:
        print("quick Figs. 4-6 grid (serial, uncached)...")
        record["grid"] = bench_grid()
        grid = record["grid"]
        for engine in ENGINES:
            prepared = grid[engine]["prepared_sims"]
            print(
                f"  {engine:>11}: {grid['cells']} cells in "
                f"{grid[engine]['seconds']:.1f} s "
                f"({grid[engine]['cells_per_s']:.3f} cells/s; "
                f"prepared {prepared['hits']} hit(s), "
                f"{prepared['builds']} build(s))"
            )
        print(f"  speedup: {grid['speedup']:.2f}x incremental")

    out = Path(args.out)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"benchmark record -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
