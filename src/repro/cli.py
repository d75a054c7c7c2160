"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the library's layers:

* ``list-gpus`` / ``list-models`` — the registries, printed as the
  paper's Tables I and II;
* ``run`` — one experiment cell with full Eq. 1-5 metrics;
* ``figure N`` — regenerate a paper figure (1, 4-11); an alias of
  ``scenario run figN``;
* ``scenario`` — the declarative sweep API: ``list`` the named paper
  scenarios, ``show`` a spec, ``run`` a scenario (or a JSON spec
  file) with manifest-backed incremental re-runs — optionally one
  shard of it (``--shard i/N``) — ``status`` of its cache and
  manifest, ``serve`` a fleet coordinator that queues the missing
  cells for pulling workers, and ``fleet-status`` a running
  coordinator;
* ``worker`` — join a fleet: lease one task at a time from a
  coordinator, run it through the local execution service, push its
  result back;
* ``microbench`` — the Fig. 8 matmul-vs-all-reduce microbenchmark;
* ``roofline`` — per-kernel roofline report for a workload on a GPU;
* ``sensitivity`` — tornado analysis of the contention-calibration
  coefficients;
* ``trace`` — simulate one iteration and export a Chrome trace;
* ``check`` — the static invariant checks over the source tree.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from repro.core.experiment import ExperimentConfig
from repro.core.modes import ExecutionMode
from repro.errors import ReproError
from repro.hw.datapath import Precision


def _add_execution_args(parser: argparse.ArgumentParser) -> None:
    """Flags controlling the execution service (repro.exec)."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for grid cells "
        "(default: $REPRO_JOBS or 1 = in-process serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="always simulate; do not reuse or record cached results",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist the result cache as JSON under DIR "
        "(default: in-memory only, or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--executor",
        default=None,
        choices=("serial", "process", "remote"),
        help="how to fan out grid cells (default: process pool when "
        "--jobs > 1, serial otherwise; remote submits cells to a "
        "fleet coordinator — requires --coordinator)",
    )
    parser.add_argument(
        "--coordinator",
        default=None,
        metavar="URL",
        help="fleet coordinator URL for --executor remote "
        "(e.g. http://127.0.0.1:8765)",
    )


def _configure_execution(args: argparse.Namespace) -> None:
    from repro.exec.service import configure

    kwargs = {
        "cache": not getattr(args, "no_cache", False),
        # None explicitly clears any directory a previous invocation
        # set, falling back to $REPRO_CACHE_DIR / in-memory only.
        "cache_dir": getattr(args, "cache_dir", None),
        "executor": getattr(args, "executor", None),
        "coordinator": getattr(args, "coordinator", None),
    }
    if getattr(args, "jobs", None) is not None:
        kwargs["jobs"] = args.jobs  # flag beats $REPRO_JOBS
    configure(**kwargs)


def _print_execution_stats(detailed: bool = False) -> None:
    from repro.exec.service import default_service

    service = default_service()
    stats = service.stats
    if stats.submitted:
        print(
            f"[exec] {stats.submitted} jobs: {stats.simulated} simulated, "
            f"{stats.cache_hits} from cache, {stats.skipped} infeasible",
            file=sys.stderr,
        )
    if not detailed:
        return
    executor = service.executor
    print(
        f"[exec] executor {type(executor).__name__}: "
        f"{executor.jobs_executed} job(s) executed this process",
        file=sys.stderr,
    )
    cache = service.cache
    if cache is None:
        print("[exec] cache: disabled (--no-cache)", file=sys.stderr)
    else:
        where = cache.directory if cache.directory is not None else "memory"
        print(
            f"[exec] cache [{where}]: {cache.hits} hit(s), "
            f"{cache.misses} miss(es)",
            file=sys.stderr,
        )
    from repro.exec.planning import default_planner

    planner_stats = default_planner().stats()
    parts = ", ".join(
        f"{name} {counts['hits']}/{counts['hits'] + counts['builds']}"
        for name, counts in planner_stats.items()
    )
    print(f"[exec] planner cache hits: {parts}", file=sys.stderr)


def _add_experiment_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gpu", default="H100", help="GPU name (list-gpus)")
    parser.add_argument("--model", default="gpt3-2.7b", help="model name")
    parser.add_argument("--batch", type=int, default=16, help="global batch size")
    parser.add_argument(
        "--strategy",
        default="fsdp",
        choices=("fsdp", "pipeline", "ddp", "tensor"),
    )
    parser.add_argument("--num-gpus", type=int, default=4)
    parser.add_argument("--seq-len", type=int, default=1024)
    parser.add_argument(
        "--precision",
        default="fp16",
        choices=[p.value for p in Precision],
    )
    parser.add_argument(
        "--no-tensor-cores",
        action="store_true",
        help="run GEMMs on the vector datapath",
    )
    parser.add_argument(
        "--schedule",
        default="gpipe",
        choices=("gpipe", "1f1b"),
        help="pipeline microbatch schedule (pipeline strategy only)",
    )
    parser.add_argument("--power-cap", type=float, default=None, metavar="WATTS")
    parser.add_argument(
        "--clock-cap",
        type=float,
        default=1.0,
        metavar="FRAC",
        help="frequency cap as a fraction of max clock",
    )
    parser.add_argument("--runs", type=int, default=3, help="seeds to average")
    parser.add_argument("--seed", type=int, default=0)


def _parse_modes(raw: Optional[str]) -> Tuple[ExecutionMode, ...]:
    """``--modes overlapped,sequential`` -> the mode tuple to simulate.

    Validation is the scenario spec's: the Eq. 1-5 metrics need both
    the overlapped and sequential runs, so those two are mandatory;
    dropping ``ideal`` skips one simulation per run.
    """
    if raw is None:
        return (
            ExecutionMode.OVERLAPPED,
            ExecutionMode.SEQUENTIAL,
            ExecutionMode.IDEAL,
        )
    from repro.scenario.spec import _coerce_modes

    parts = [part.strip() for part in raw.split(",") if part.strip()]
    return tuple(
        ExecutionMode(value) for value in _coerce_modes(parts, "--modes")
    )


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        gpu=args.gpu,
        model=args.model,
        batch_size=args.batch,
        strategy=args.strategy,
        num_gpus=args.num_gpus,
        seq_len=args.seq_len,
        precision=Precision(args.precision),
        use_tensor_cores=not args.no_tensor_cores,
        pipeline_schedule=args.schedule,
        power_limit_w=args.power_cap,
        max_clock_frac=args.clock_cap,
        runs=args.runs,
        base_seed=args.seed,
    )


def _cmd_list_gpus(_: argparse.Namespace) -> int:
    from repro.harness.tables import render_table1

    print(render_table1())
    return 0


def _cmd_list_models(_: argparse.Namespace) -> int:
    from repro.harness.tables import render_table2

    print(render_table2())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.exec.service import default_service

    _configure_execution(args)
    modes = _parse_modes(args.modes)
    config = _config_from_args(args)
    print(f"running: {config.describe()} ({config.runs} runs)")
    result = default_service().run_config(config, modes=modes)
    m = result.metrics
    print()
    print(f"compute slowdown (Eq. 1):   {m.compute_slowdown * 100:7.1f} %")
    print(f"overlap ratio (Eq. 2):      {m.overlap_ratio * 100:7.1f} %")
    for mode in modes:
        stats = result.modes[mode]
        avg, peak = result.power_vs_tdp(mode)
        print(
            f"{mode.value:>11}: e2e {stats.e2e_s * 1e3:9.2f} ms  "
            f"power {avg:4.2f}/{peak:4.2f}x TDP  "
            f"energy {stats.energy_j:8.1f} J  "
            f"min clock {stats.min_clock_frac:4.2f}"
        )
    print(f"\nfeasibility: {result.feasibility.reason}")
    _print_execution_stats()
    return 0


_FIGURES = ("1", "4", "5", "6", "7", "8", "9", "10", "11")


def _cmd_figure(args: argparse.Namespace) -> int:
    """``figure N`` is ``scenario run figN``."""
    if args.number not in _FIGURES:
        print(
            f"unknown figure {args.number!r} "
            f"(available: {', '.join(_FIGURES)})",
            file=sys.stderr,
        )
        return 2
    args.name = f"fig{args.number}"
    return _cmd_scenario_run(args)


def _cmd_scenario_list(args: argparse.Namespace) -> int:
    from repro.harness.report import render_table
    from repro.scenario.registry import list_scenarios

    rows = []
    for scenario in list_scenarios():
        spec = scenario.spec(quick=not args.full)
        rows.append(
            [
                scenario.name,
                str(len(spec.compile())) if spec is not None else "-",
                scenario.description,
            ]
        )
    print(render_table(["scenario", "cells", "description"], rows))
    return 0


def _cmd_scenario_show(args: argparse.Namespace) -> int:
    import json

    from repro.scenario.runner import (
        override_spec,
        parse_set_overrides,
        resolve_spec,
    )

    _, name, spec = resolve_spec(args.name, quick=not args.full)
    # Shared with `scenario run`: previewing a spec-less artifact with
    # --set raises instead of silently dropping the override.
    spec = override_spec(
        name, spec, parse_set_overrides(getattr(args, "overrides", None))
    )
    if spec is None:
        print(
            f"{name}: no sweep spec (this artifact does not run through "
            f"the job service); use 'scenario run {name}' to generate it"
        )
        return 0
    print(json.dumps(spec.to_dict(), indent=2))
    jobs = spec.compile()
    print(f"\nspec hash: {spec.spec_hash()}")
    print(f"compiles to {len(jobs)} job(s):")
    preview = 10
    for job in jobs[:preview]:
        print(f"  {job.describe()}")
    if len(jobs) > preview:
        print(f"  ... and {len(jobs) - preview} more")
    return 0


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    from repro.exec.shard import ShardPlan
    from repro.scenario.runner import parse_set_overrides, run_scenario

    _configure_execution(args)
    shard = ShardPlan.parse(args.shard) if args.shard else None
    report = run_scenario(
        args.name,
        quick=not args.full,
        shard=shard,
        overrides=parse_set_overrides(getattr(args, "overrides", None)),
    )
    print(report.text)
    # Always printed for spec-backed runs: "0 cell(s)" is the only
    # signal that constraints filtered the whole sweep away.
    if report.spec is not None:
        scope = f"{report.cells} cell(s)"
        if report.shard is not None:
            scope = (
                f"shard {report.shard.describe()}: {report.cells} of "
                f"{report.total_cells} cell(s)"
            )
        line = (
            f"[scenario {report.name}] {scope}: "
            f"{report.simulated} simulated, {report.cache_hits} from cache, "
            f"{report.skipped} infeasible"
        )
        if report.previously_completed:
            line += (
                f"; {report.previously_completed} already in manifest"
            )
        print(line, file=sys.stderr)
    if report.manifest_file is not None:
        print(f"[scenario] manifest -> {report.manifest_file}", file=sys.stderr)
    _print_execution_stats(detailed=getattr(args, "stats", False))
    if args.out:
        from repro.harness.io import write_json

        write_json(args.out, report.rows)
        print(f"\ndata written to {args.out}")
    return 0


def _cmd_scenario_status(args: argparse.Namespace) -> int:
    from repro.scenario.runner import scenario_status

    _configure_execution(args)
    report = scenario_status(
        args.name, quick=not args.full, shards=args.shards
    )
    if getattr(args, "json", False):
        import json

        print(json.dumps(report.to_payload(), indent=2))
    else:
        print(report.describe())
    return 0


def _cmd_scenario_serve(args: argparse.Namespace) -> int:
    from repro.exec.service import default_service
    from repro.fleet.coordinator import FleetCoordinator, compile_fleet_plan

    _configure_execution(args)
    plan = compile_fleet_plan(args.name, quick=not args.full)
    coordinator = FleetCoordinator(
        cache=default_service().cache,
        host=args.host,
        port=args.port,
        lease_timeout=args.lease_timeout,
        max_retries=args.max_retries,
    )
    queued, precached = coordinator.seed_scenario(plan)
    coordinator.start()
    print(f"[fleet] serving scenario {plan.name} at {coordinator.url}")
    print(
        f"[fleet] {plan.cells} cell(s), {len(plan.jobs_by_key)} distinct "
        f"key(s): {queued} queued, {precached} already cached"
    )
    print(f"[fleet] attach workers with: repro worker {coordinator.url}")
    ok = coordinator.serve_until_drained(timeout=args.timeout)
    stats = coordinator.queue.stats
    print(
        f"[fleet] queue drained: {stats.completed} completed "
        f"({stats.infeasible} infeasible), {stats.leased} lease(s), "
        f"{stats.requeued} requeued, {stats.retries} retried, "
        f"{stats.dead_workers} dead worker(s), {stats.failed} failed"
    )
    if coordinator.manifest_file is not None:
        print(f"[fleet] manifest -> {coordinator.manifest_file}")
    if not ok:
        failed = coordinator.queue.failed_keys()
        for key, error in sorted(failed.items()):
            print(f"[fleet] FAILED {key[:16]}...: {error}", file=sys.stderr)
        print(
            "[fleet] sweep incomplete; no manifest written", file=sys.stderr
        )
        return 1
    return 0


def _cmd_scenario_fleet_status(args: argparse.Namespace) -> int:
    import json

    from repro.fleet.protocol import normalize_url, request_json

    status = request_json(f"{normalize_url(args.url)}/status")
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    print(f"coordinator {normalize_url(args.url)} "
          f"({status.get('code_version', '?')})"
          + (" [draining]" if status.get("draining") else ""))
    queue = status.get("queue", {})
    print(
        f"  queue: {queue.get('pending', 0)} pending, "
        f"{queue.get('leased', 0)} leased, {queue.get('done', 0)} done, "
        f"{queue.get('failed', 0)} failed"
    )
    workers = queue.get("workers") or []
    if workers:
        print(f"  active workers: {', '.join(workers)}")
    stats = queue.get("stats", {})
    if stats:
        print(
            f"  stats: {stats.get('submitted', 0)} submitted, "
            f"{stats.get('leased', 0)} leased, "
            f"{stats.get('completed', 0)} completed "
            f"({stats.get('infeasible', 0)} infeasible), "
            f"{stats.get('requeued', 0)} requeued, "
            f"{stats.get('retries', 0)} retried, "
            f"{stats.get('duplicates', 0)} duplicate(s), "
            f"{stats.get('dead_workers', 0)} dead worker(s)"
        )
    cache = status.get("cache", {})
    if cache:
        where = cache.get("dir") or "memory"
        print(
            f"  cache [{where}]: {cache.get('hits', 0)} hit(s), "
            f"{cache.get('misses', 0)} miss(es)"
        )
    scenario = status.get("scenario")
    if scenario:
        print(
            f"  scenario {scenario.get('name')} "
            f"(spec {str(scenario.get('spec_hash', ''))[:12]}...): "
            f"{scenario.get('resolved_keys', 0)}/"
            f"{scenario.get('distinct_keys', 0)} key(s) resolved over "
            f"{scenario.get('cells', 0)} cell(s)"
        )
        if scenario.get("manifest_file"):
            print(f"  manifest -> {scenario['manifest_file']}")
    for key, error in sorted((status.get("failed") or {}).items()):
        print(f"  FAILED {key}...: {error}")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.exec.service import default_service
    from repro.fleet.worker import FleetWorker

    if getattr(args, "executor", None) == "remote":
        # A worker that re-submits its own leased task would poll the
        # coordinator for an outcome only it can produce.
        raise ConfigurationError(
            "a fleet worker cannot itself use the remote executor"
        )
    _configure_execution(args)
    worker = FleetWorker(
        url=args.url,
        executor=default_service().executor,
        max_tasks=args.max_tasks,
        max_idle_s=args.max_idle,
    )
    print(f"[fleet] worker {worker.worker_id} -> {worker.url}", file=sys.stderr)
    stats = worker.run()
    print(
        f"[fleet] worker {worker.worker_id} done: {stats.completed} "
        f"completed ({stats.infeasible} infeasible), {stats.errors} "
        f"error(s), {stats.waits} wait(s)",
        file=sys.stderr,
    )
    return 0 if stats.errors == 0 else 1


def _cmd_scenario_diff(args: argparse.Namespace) -> int:
    import os

    from repro.errors import ConfigurationError
    from repro.scenario.manifest import diff_manifests, load_manifest_file

    manifests = []
    for path in (args.a, args.b):
        if not os.path.exists(path):
            raise ConfigurationError(f"manifest file not found: {path}")
        manifest = load_manifest_file(path)
        if manifest is None:
            raise ConfigurationError(
                f"{path} is not a readable scenario manifest"
            )
        manifests.append(manifest)
    diff = diff_manifests(manifests[0], manifests[1], tol=args.tol)
    print(diff.describe())
    return 1 if diff.drifted else 0


def _cmd_microbench(args: argparse.Namespace) -> int:
    from repro.core.microbench import run_microbench
    from repro.hw.system import make_node

    node = make_node(args.gpu, args.num_gpus)
    tdp = node.gpu.tdp_w
    sizes = [int(s) for s in args.sizes.split(",")]
    print(
        f"{'N':>7} {'slowdown':>9} {'avgP_ov':>8} {'peakP_ov':>9} "
        f"{'avgP_iso':>9} {'peakP_iso':>10}"
    )
    for n in sizes:
        r = run_microbench(node, n)
        print(
            f"{n:>7} {r.slowdown * 100:>8.1f}% "
            f"{r.avg_power_overlap_w / tdp:>7.2f}x "
            f"{r.peak_power_overlap_w / tdp:>8.2f}x "
            f"{r.avg_power_isolated_w / tdp:>8.2f}x "
            f"{r.peak_power_isolated_w / tdp:>9.2f}x"
        )
    return 0


def _cmd_roofline(args: argparse.Namespace) -> int:
    from repro.analysis.roofline import (
        bound_time_split,
        render_roofline,
        roofline_report,
    )
    from repro.hw.datapath import resolve_path
    from repro.hw.registry import get_gpu
    from repro.workloads.registry import get_model
    from repro.workloads.transformer import TrainingShape

    shape = TrainingShape(
        batch_size=args.batch,
        seq_len=args.seq_len,
        path=resolve_path(
            Precision(args.precision), not args.no_tensor_cores
        ),
    )
    points = roofline_report(get_model(args.model), shape, get_gpu(args.gpu))
    print(render_roofline(points, top=args.top))
    split = bound_time_split(points)
    print(
        f"\niteration is {split['compute_bound_fraction'] * 100:.1f}% "
        f"compute-bound by time "
        f"({split['compute_bound_s'] * 1e3:.1f} ms vs "
        f"{split['memory_bound_s'] * 1e3:.1f} ms memory-bound)"
    )
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.analysis.sensitivity import (
        DEFAULT_TORNADO_CONFIG,
        render_tornado,
        tornado,
    )

    _configure_execution(args)
    # Unset flags fall back to the scenario's canonical configuration,
    # so `repro sensitivity` and `scenario run sensitivity` agree.
    overrides = dict(DEFAULT_TORNADO_CONFIG)
    for flag, field in (
        ("gpu", "gpu"),
        ("model", "model"),
        ("batch", "batch_size"),
        ("strategy", "strategy"),
    ):
        value = getattr(args, flag)
        if value is not None:
            overrides[field] = value
    config = ExperimentConfig(**overrides)
    print(
        f"tornado analysis around the default {config.node().gpu.vendor} "
        f"calibration ({config.describe()}, +-{args.delta * 100:.0f}%)"
    )
    bars = tornado(config, rel_delta=args.delta)
    print(render_tornado(bars))
    _print_execution_stats()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.parallel.strategy import build_plan
    from repro.profiler.chrome_trace import write_chrome_trace
    from repro.sim.engine import simulate

    config = _config_from_args(args)
    node = config.node()
    plan = build_plan(
        node,
        config.model_spec(),
        config.shape(),
        config.strategy,
        overlap=not args.sequential,
    )
    result = simulate(node, plan, config.sim_config(seed=args.seed))
    write_chrome_trace(result, args.out)
    print(
        f"{plan.name}: {len(result.records)} records over "
        f"{result.end_time_s * 1e3:.1f} ms -> {args.out}"
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.checks import format_findings, run_checks
    from repro.checks.runner import iter_codes

    if args.list_codes:
        for code, description in iter_codes():
            print(f"{code}  {description}")
        return 0
    if args.root is not None:
        root = Path(args.root)
    else:
        root = Path(__file__).resolve().parent
    report = run_checks(root, select=args.select)
    print(format_findings(report, args.format))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-gpus", help="Table I: the GPU registry").set_defaults(
        func=_cmd_list_gpus
    )
    sub.add_parser(
        "list-models", help="Table II: the workload registry"
    ).set_defaults(func=_cmd_list_models)

    run_parser = sub.add_parser("run", help="run one experiment cell")
    _add_experiment_args(run_parser)
    run_parser.add_argument(
        "--modes",
        default=None,
        metavar="M1,M2",
        help="comma-separated execution modes to simulate "
        "(default: overlapped,sequential,ideal; overlapped and "
        "sequential are mandatory)",
    )
    _add_execution_args(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    fig_parser = sub.add_parser(
        "figure", help="regenerate a paper figure (= scenario run figN)"
    )
    fig_parser.add_argument("number", help="figure number (1, 4-11)")
    fig_parser.add_argument(
        "--full", action="store_true", help="full paper-scale sweep"
    )
    fig_parser.add_argument("--out", default=None, help="write JSON data here")
    _add_execution_args(fig_parser)
    # No --shard/--set/--stats: a figure is the whole, canonical run.
    fig_parser.set_defaults(func=_cmd_figure, shard=None)

    scenario_parser = sub.add_parser(
        "scenario", help="the declarative sweep-spec API"
    )
    scenario_sub = scenario_parser.add_subparsers(
        dest="scenario_command", required=True
    )
    sc_list = scenario_sub.add_parser(
        "list", help="name every registered paper scenario"
    )
    sc_list.add_argument(
        "--full", action="store_true", help="count paper-scale cells"
    )
    sc_list.set_defaults(func=_cmd_scenario_list)
    sc_show = scenario_sub.add_parser(
        "show", help="print a scenario's spec and compiled jobs"
    )
    sc_show.add_argument("name", help="scenario name or spec file")
    sc_show.add_argument(
        "--full", action="store_true", help="paper-scale spec"
    )
    sc_show.add_argument(
        "--set",
        action="append",
        dest="overrides",
        default=None,
        metavar="FIELD=VALUE",
        help="preview the spec with a base-cell override applied "
        "(repeatable)",
    )
    sc_show.set_defaults(func=_cmd_scenario_show)
    sc_run = scenario_sub.add_parser(
        "run", help="run a named scenario or a JSON spec file"
    )
    sc_run.add_argument("name", help="scenario name or spec file")
    sc_run.add_argument(
        "--full", action="store_true", help="full paper-scale sweep"
    )
    sc_run.add_argument("--out", default=None, help="write JSON data here")
    sc_run.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help="run only shard I of N (deterministic partition of the "
        "compiled jobs); the run that finds every key in the shared "
        "--cache-dir writes the scenario manifest",
    )
    sc_run.add_argument(
        "--set",
        action="append",
        dest="overrides",
        default=None,
        metavar="FIELD=VALUE",
        help="override one base-cell experiment field for every cell "
        "(repeatable; e.g. --set gpu=H100 --set runs=1). "
        "Values parse as JSON scalars, then strings. Overridden runs "
        "use the generic per-cell rows and a hash-qualified manifest "
        "name; fields swept by an axis are rejected",
    )
    sc_run.add_argument(
        "--stats",
        action="store_true",
        help="print detailed execution-service statistics "
        "(executor job count, cache hit/miss counters)",
    )
    _add_execution_args(sc_run)
    sc_run.set_defaults(func=_cmd_scenario_run)
    sc_status = scenario_sub.add_parser(
        "status",
        help="report cache-key, shard and manifest state without running",
    )
    sc_status.add_argument("name", help="scenario name or spec file")
    sc_status.add_argument(
        "--full", action="store_true", help="inspect the paper-scale spec"
    )
    sc_status.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="also count each shard's cached keys under the N-way "
        "partitioning",
    )
    sc_status.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of the text report",
    )
    _add_execution_args(sc_status)
    sc_status.set_defaults(func=_cmd_scenario_status)
    sc_serve = scenario_sub.add_parser(
        "serve",
        help="run a fleet coordinator: queue the scenario's missing "
        "cells and serve them to pulling workers until the sweep drains",
    )
    sc_serve.add_argument("name", help="scenario name or spec file")
    sc_serve.add_argument(
        "--full", action="store_true", help="full paper-scale sweep"
    )
    sc_serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: localhost only)",
    )
    sc_serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="bind port (0 = ephemeral; default: 8765)",
    )
    sc_serve.add_argument(
        "--lease-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="seconds a lease survives without a heartbeat before the "
        "task requeues (default: 30)",
    )
    sc_serve.add_argument(
        "--max-retries",
        type=int,
        default=3,
        metavar="N",
        help="re-lease budget per task before dead-lettering (default: 3)",
    )
    sc_serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="give up if the sweep has not drained after S seconds "
        "(default: wait indefinitely)",
    )
    _add_execution_args(sc_serve)
    sc_serve.set_defaults(func=_cmd_scenario_serve)
    sc_fleet = scenario_sub.add_parser(
        "fleet-status",
        help="query a running coordinator's status endpoint",
    )
    sc_fleet.add_argument("url", help="coordinator URL (host:port works)")
    sc_fleet.add_argument(
        "--json",
        action="store_true",
        help="emit the raw JSON status instead of the text report",
    )
    sc_fleet.set_defaults(func=_cmd_scenario_fleet_status)
    sc_diff = scenario_sub.add_parser(
        "diff",
        help="compare two scenario manifest files; exit 1 on drift",
    )
    sc_diff.add_argument("a", help="baseline manifest JSON file")
    sc_diff.add_argument("b", help="candidate manifest JSON file")
    sc_diff.add_argument(
        "--tol",
        type=float,
        default=0.0,
        metavar="REL",
        help="relative tolerance for drift-relevant summary deltas "
        "(default: exact)",
    )
    sc_diff.set_defaults(func=_cmd_scenario_diff)

    worker_parser = sub.add_parser(
        "worker",
        help="join a fleet: lease tasks from a coordinator, simulate "
        "them locally, push the results back",
    )
    worker_parser.add_argument(
        "url", help="coordinator URL (host:port works)"
    )
    worker_parser.add_argument(
        "--max-tasks",
        type=int,
        default=None,
        metavar="N",
        help="exit after N tasks (default: run until the sweep drains)",
    )
    worker_parser.add_argument(
        "--max-idle",
        type=float,
        default=None,
        metavar="S",
        help="exit after S seconds with nothing leasable "
        "(default: wait for the coordinator to drain)",
    )
    _add_execution_args(worker_parser)
    worker_parser.set_defaults(func=_cmd_worker)

    micro_parser = sub.add_parser(
        "microbench", help="Fig. 8 matmul vs all-reduce"
    )
    micro_parser.add_argument("--gpu", default="A100")
    micro_parser.add_argument("--num-gpus", type=int, default=4)
    micro_parser.add_argument(
        "--sizes", default="2048,4096,8192", help="comma-separated N values"
    )
    micro_parser.set_defaults(func=_cmd_microbench)

    roof_parser = sub.add_parser(
        "roofline", help="per-kernel roofline for a workload"
    )
    roof_parser.add_argument("--gpu", default="A100")
    roof_parser.add_argument("--model", default="gpt3-2.7b")
    roof_parser.add_argument("--batch", type=int, default=16)
    roof_parser.add_argument("--seq-len", type=int, default=1024)
    roof_parser.add_argument(
        "--precision", default="fp16", choices=[p.value for p in Precision]
    )
    roof_parser.add_argument("--no-tensor-cores", action="store_true")
    roof_parser.add_argument("--top", type=int, default=15)
    roof_parser.set_defaults(func=_cmd_roofline)

    sens_parser = sub.add_parser(
        "sensitivity",
        help="tornado analysis of the contention-calibration coefficients",
    )
    # None = fall back to the sensitivity scenario's canonical cell
    # (repro.analysis.sensitivity.DEFAULT_TORNADO_CONFIG), imported
    # lazily so parser construction stays light.
    sens_parser.add_argument("--gpu", default=None, help="default: MI210")
    sens_parser.add_argument("--model", default=None, help="default: gpt3-xl")
    sens_parser.add_argument(
        "--batch", type=int, default=None, help="default: 8"
    )
    sens_parser.add_argument(
        "--strategy", default=None, help="default: fsdp"
    )
    sens_parser.add_argument("--delta", type=float, default=0.5)
    _add_execution_args(sens_parser)
    sens_parser.set_defaults(func=_cmd_sensitivity)

    trace_parser = sub.add_parser(
        "trace", help="simulate one iteration and export a Chrome trace"
    )
    _add_experiment_args(trace_parser)
    trace_parser.add_argument("--out", default="trace.json")
    trace_parser.add_argument(
        "--sequential", action="store_true", help="serialize communication"
    )
    trace_parser.set_defaults(func=_cmd_trace)

    check_parser = sub.add_parser(
        "check",
        help="static invariant checks (determinism, cache keys, engine "
        "dispatch, lock/wire discipline)",
    )
    check_parser.add_argument(
        "--select",
        default=None,
        metavar="D,C,T,L,W",
        help="comma-separated checker series (default: all)",
    )
    check_parser.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    check_parser.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="tree to scan (default: the installed repro package)",
    )
    check_parser.add_argument(
        "--list-codes",
        action="store_true",
        help="print the finding-code registry and exit",
    )
    check_parser.set_defaults(func=_cmd_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pipe (e.g. `| head`) closed early. Point stdout at
        # devnull so the interpreter's exit-time flush stays quiet too.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
