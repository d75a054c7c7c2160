"""End-to-end and per-layer benchmark of the simulator's sweep paths.

    python3 perfbench/run.py --workload grid_cold --seed 0 --seconds 20 --trace 0

Run from the repository root. Each repetition runs in a fresh
interpreter (``child.py``), so every repetition measures a cold
program. Each child is pinned to known CPUs whose speed this process
probes while the child runs, and every time is reported in reference
seconds (see ``PROBE_REFERENCE_S``), so host speed drift cancels out.
``--trace 0`` repeats the workload untraced until ``--seconds`` have
passed (and at least twice) and reports the end-to-end metrics as
medians over the repetitions; ``--trace 1`` makes one untraced run, a
serial reference run where the measured executor is not serial, and
one traced run, and reports the per-layer metrics. Every metric is
printed by name and unit; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Scratch files (cache directories, chrome traces) go under
``.perfbench_out/``.
See ``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")

#: Workload -> executor of the measured runs, executor of the serial
#: reference run a ``--trace 1`` run adds, whose payloads must match
#: byte for byte (None: the measured runs are serial already), executor
#: of the traced run, and the worker count the parallel efficiency
#: divides by.
WORKLOADS = {
    "grid_cold": {"executor": "serial", "reference": None,
                  "traced": "serial", "workers": 1},
    "powercap_pool": {"executor": "process", "reference": "serial",
                      "traced": "serial", "workers": 2},
    "fleet_drain": {"executor": "fleet", "reference": "serial",
                    "traced": "fleet", "workers": 1},
}

#: End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "cells/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> (unit, end-to-end metric it should move,
#: workload where it should move most, workload where it should not
#: move or None).
PER_LAYER = {
    "plan.build_s": ("s", "cells_per_s", "grid_cold", "powercap_pool"),
    "plan.builds": ("count", "cells_per_s", "grid_cold", "powercap_pool"),
    "plan.hit_ratio": ("ratio", "cells_per_s", "grid_cold", "powercap_pool"),
    "prep.build_s": ("s", "cells_per_s", "grid_cold", "powercap_pool"),
    "prep.builds": ("count", "cells_per_s", "grid_cold", "powercap_pool"),
    "prep.hit_ratio": ("ratio", "cells_per_s", "grid_cold", "powercap_pool"),
    "drain.self_s": ("s", "cells_per_s", "powercap_pool", None),
    "drain.calls": ("count", "cells_per_s", "powercap_pool", None),
    "drain.events": ("count", "cells_per_s", "powercap_pool", None),
    "drain.us_per_event": ("us", "cells_per_s", "powercap_pool", None),
    "feasibility.self_s": ("s", "cells_per_s", "grid_cold", None),
    "feasibility.infeasible": ("count", "cells_per_s", "grid_cold", None),
    "sampling.self_s": ("s", "cells_per_s", "powercap_pool", None),
    "metrics.self_s": ("s", "cells_per_s", "grid_cold", None),
    "experiment.self_s": ("s", "cells_per_s", "grid_cold", None),
    "serialize.self_s": ("s", "cells_per_s", "grid_cold", "powercap_pool"),
    "cache.put_s": ("s", "cells_per_s", "grid_cold", "powercap_pool"),
    "cache.puts": ("count", "cells_per_s", "grid_cold", "powercap_pool"),
    "cache.bytes_written": ("bytes", "cells_per_s", "grid_cold",
                            "powercap_pool"),
    "cache.get_s": ("s", "cells_per_s", "fleet_drain", "powercap_pool"),
    "cache.gets": ("count", "cells_per_s", "fleet_drain", "powercap_pool"),
    "cache.hit_ratio": ("ratio", "cells_per_s", "fleet_drain",
                        "powercap_pool"),
    "scenario.compile_s": ("s", "setup_s", "fleet_drain", None),
    "render.self_s": ("s", "cells_per_s", "grid_cold", None),
    "executor.self_s": ("s", "cells_per_s", "fleet_drain", None),
    "executor.parallel_efficiency": ("ratio", "cells_per_s",
                                     "powercap_pool", "grid_cold"),
    "fleet.requests": ("count", "cells_per_s", "fleet_drain", "grid_cold"),
    "fleet.request_s": ("s", "cells_per_s", "fleet_drain", "grid_cold"),
    "fleet.outcome_polls": ("count", "cells_per_s", "fleet_drain",
                            "grid_cold"),
    "fleet.lease_waits": ("count", "cells_per_s", "fleet_drain", "grid_cold"),
    "fleet.overhead_ratio": ("ratio", "cells_per_s", "fleet_drain",
                             "grid_cold"),
    "unattributed_s": ("s", "cells_per_s", "grid_cold", None),
    "trace.overhead_ratio": ("ratio", "cells_per_s", "grid_cold", None),
    "check.paper_gap_pp": ("pp", "cells_per_s", "grid_cold", None),
}

#: Set-up-only interpreters started per ``--trace 0`` run, on top of
#: the measured repetitions, so that ``setup_s`` is a median of several.
SETUP_CHILDREN = 3

#: Measured repetitions per ``--trace 0`` run, at least. A cold grid
#: repetition takes 10-25 s, so more would not fit in a run's time.
MIN_REPETITIONS = 2

#: Hard limits on one child and on the whole run, which must end
#: within three minutes.
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 165.0


#: Host-speed probe. The vCPUs of a shared host change speed by up to
#: 1.6x within seconds, each on its own, and wall times follow. So each
#: child is pinned to known CPUs, and while it runs this process times
#: a fixed pure-python burst on those CPUs every PROBE_INTERVAL_S, in
#: this thread's CPU time. A probe's speed is PROBE_REFERENCE_S over its
#: burst time (below 1 while the CPU is slower than the reference), and
#: a duration times the mean speed over it is the time the same work
#: takes at reference speed: the "reference seconds" every time metric
#: reports.
PROBE_ITERATIONS = 15000
PROBE_INTERVAL_S = 0.1
PROBE_REFERENCE_S = 0.005


def probe_burst() -> float:
    """CPU seconds one fixed burst of dict, float and call work takes."""
    start = time.thread_time()
    table: dict = {}
    acc = 0.0
    for i in range(PROBE_ITERATIONS):
        key = (i * 7919) % 503
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += abs(key - 251) / (i + 1.0)
    return time.thread_time() - start


def probe_while_running(proc, cpus: list, deadline: float) -> list:
    """[monotonic time, cpu, probe speed] until ``proc`` exits.

    The bursts cycle over ``cpus``, the CPUs the child is pinned to.
    """
    probes = []
    own = os.sched_getaffinity(0)
    try:
        while proc.poll() is None and time.monotonic() < deadline:
            cpu = cpus[len(probes) % len(cpus)]
            os.sched_setaffinity(0, {cpu})
            probes.append([time.monotonic(), cpu,
                           PROBE_REFERENCE_S / probe_burst()])
            try:
                proc.wait(timeout=PROBE_INTERVAL_S)
            except subprocess.TimeoutExpired:
                pass
    finally:
        os.sched_setaffinity(0, own)
    return probes


def mean_speed(record: dict, start: float, end: float) -> float:
    """Mean probe speed over [start, end] (over the whole child if no
    probe falls in that window)."""
    probes = record["host_probes"]
    speeds = ([speed for at, _, speed in probes if start <= at <= end]
              or [speed for _, _, speed in probes])
    return statistics.fmean(speeds)


def setup_ref_s(record: dict) -> float:
    """The child's set-up time in reference seconds."""
    return record["setup_s"] * mean_speed(record, 0.0,
                                          record["first_submit_at"])


def wall_ref_s(record: dict) -> float:
    """The child's measured section in reference seconds."""
    return record["wall_s"] * mean_speed(record, record["first_submit_at"],
                                         record["end_at"])


class Runner:
    """Starts child interpreters and collects their JSON records."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.count = 0
        self.crashed = 0
        self.cpus = sorted(os.sched_getaffinity(0))
        OUT_DIR.mkdir(exist_ok=True)
        self.tmp = (OUT_DIR / "tmp").resolve()
        self.tmp.mkdir(exist_ok=True)

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, executor: str, trace: int = 0, setup_only: bool = False,
              hash_seed: int = 1):
        """One repetition; its record, or ``None`` if the child failed.

        ``hash_seed`` pins the child's ``PYTHONHASHSEED``: string hashing
        moves a cold run's speed by several percent, so every run cycles
        through the same hash seeds and its medians do not wander with
        them. Results must not depend on it; the payload digests of
        repetitions with different hash seeds are compared.
        """
        self.count += 1
        rep = (OUT_DIR / f"{self.workload}-rep{self.count}").resolve()
        shutil.rmtree(rep, ignore_errors=True)
        rep.mkdir(parents=True)
        out = rep / "record.json"
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--executor", executor, "--trace", str(trace),
            "--scratch", str(rep), "--out", str(out),
        ]
        if setup_only:
            cmd.append("--setup-only")
        src = str(Path("src").resolve())
        # The program reads REPRO_* settings (jobs, cache directory and
        # bound, engine toggles) from the environment; the workloads fix
        # their own.
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["TMPDIR"] = str(self.tmp)
        env["PYTHONHASHSEED"] = str(hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        cpus = self.cpus[:2] if executor == "process" else self.cpus[-1:]
        err_file = rep / "stderr.txt"
        spawned = time.monotonic()
        with open(err_file, "wb") as err_out:
            proc = subprocess.Popen(
                cmd + ["--spawned-at", repr(spawned)], env=env,
                stdout=subprocess.DEVNULL, stderr=err_out,
                start_new_session=True,
                preexec_fn=lambda: os.sched_setaffinity(0, cpus),
            )
        try:
            probes = probe_while_running(proc, cpus,
                                         spawned + CHILD_TIMEOUT_S)
        except BaseException:
            # This process is being stopped: the child and any pool
            # workers it forked go with it.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        err = err_file.read_bytes()
        record = None
        if proc.returncode == 0 and out.exists():
            record = json.loads(out.read_text())
            record["host_probes"] = probes
            trace_file = rep / "trace.json"
            if trace_file.exists():
                target = OUT_DIR / f"trace-{self.workload}-seed{self.seed}.json"
                trace_file.replace(target)
                record["chrome_trace"] = str(target)
        else:
            self.crashed += 1
            sys.stderr.write(
                f"child {' '.join(cmd[1:])} exited {proc.returncode}:\n"
                f"{err.decode(errors='replace')[-4000:]}\n"
            )
        shutil.rmtree(rep, ignore_errors=True)
        return record


def _mismatches(records, expected_cells: int) -> int:
    """Cells whose payload digest differs from the first record's."""
    base = {key: digest for key, digest in records[0]["digests"]}
    bad = 0
    for record in records[1:]:
        digests = dict(record["digests"])
        bad += sum(1 for key in base if digests.get(key) != base[key])
        bad += expected_cells - len(record["digests"])
    return bad


def _tally(runner: Runner, records) -> tuple:
    """(attempted, failed) over measured records plus crashed children."""
    good = [r for r in records if r is not None]
    cells = good[0]["cells"] if good else 1
    attempted = cells * len(records)
    failed = cells * (len(records) - len(good))
    failed += sum(r["failed"] for r in good)
    if len(good) > 1:
        failed += _mismatches(good, cells)
    return attempted, min(failed, attempted)


def run_untraced(runner: Runner, seconds: float):
    """End-to-end metrics: medians over fresh-interpreter repetitions."""
    spec = WORKLOADS[runner.workload]
    setup_only = [runner.spawn(spec["executor"], setup_only=True,
                               hash_seed=i)
                  for i in range(1, SETUP_CHILDREN + 1)]
    measured_from = runner.elapsed()
    reps = []
    while True:
        reps.append(runner.spawn(spec["executor"], hash_seed=len(reps) + 1))
        took = (runner.elapsed() - measured_from) / len(reps)
        if runner.elapsed() + 2.5 * took > RUN_BUDGET_S:
            break
        if (len(reps) >= MIN_REPETITIONS
                and runner.elapsed() - measured_from >= seconds):
            break
    attempted, failed = _tally(runner, reps)
    good = [r for r in reps if r is not None]
    setups = [setup_ref_s(r) for r in setup_only + reps if r is not None]
    rates = [r["cells"] / wall_ref_s(r) for r in good]
    metrics = {}
    if good and setups:
        metrics = {
            "setup_s": statistics.median(setups),
            "cells_per_s": statistics.median(rates),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        }
    info = {
        "repetitions": len(reps),
        "setup_s_samples": [round(s, 4) for s in setups],
        "cells_per_s_samples": [round(rate, 4) for rate in rates],
        "host_cells_per_s_samples": [round(r["cells"] / r["wall_s"], 4)
                                     for r in good],
        "host_speed_samples": [
            round(mean_speed(r, r["first_submit_at"], r["end_at"]), 4)
            for r in good],
    }
    return metrics, attempted, failed, good, info


def run_traced(runner: Runner):
    """Per-layer metrics from one traced run next to untraced ones."""
    spec = WORKLOADS[runner.workload]
    untraced = runner.spawn(spec["executor"])
    reference = (runner.spawn(spec["reference"])
                 if spec["reference"] is not None else None)
    traced = runner.spawn(spec["traced"], trace=1)
    checked = [untraced, traced] + (
        [reference] if spec["reference"] is not None else [])
    attempted, failed = _tally(runner, checked)
    if untraced is None or traced is None or (
            spec["reference"] is not None and reference is None):
        return {}, attempted, failed, [], {}
    # The tracing overhead compares runs of the same executor.
    base = untraced if spec["traced"] == spec["executor"] else reference
    layers = traced["layers"]
    # Span times of the traced child, in reference seconds.
    speed = mean_speed(traced, 0.0, traced["end_at"])
    selfs = {layer: t * speed for layer, t in layers["self_s"].items()}
    calls, counts = layers["calls"], layers["counts"]
    plans, preps = layers["planner"]["plans"], layers["planner"]["prepared"]

    def hit_ratio(hits, total):
        return hits / total if total else 0.0

    events = counts.get("drain.events", 0)
    gets = counts.get("cache.gets", 0)
    fleet = runner.workload == "fleet_drain"
    metrics = {
        "plan.build_s": selfs.get("plan", 0.0),
        "plan.builds": plans["builds"],
        "plan.hit_ratio": hit_ratio(plans["hits"],
                                    plans["hits"] + plans["builds"]),
        "prep.build_s": selfs.get("prep", 0.0),
        "prep.builds": preps["builds"],
        "prep.hit_ratio": hit_ratio(preps["hits"],
                                    preps["hits"] + preps["builds"]),
        "drain.self_s": selfs.get("drain", 0.0),
        "drain.calls": calls.get("drain", 0),
        "drain.events": events,
        "drain.us_per_event": (
            selfs.get("drain", 0.0) / events * 1e6 if events else 0.0),
        "feasibility.self_s": selfs.get("feasibility", 0.0),
        "feasibility.infeasible": counts.get("feasibility.infeasible", 0),
        "sampling.self_s": selfs.get("sampling", 0.0),
        "metrics.self_s": selfs.get("metrics", 0.0),
        "experiment.self_s": selfs.get("experiment", 0.0),
        "serialize.self_s": selfs.get("serialize", 0.0),
        "cache.put_s": selfs.get("cache.put", 0.0)
        + selfs.get("cache.write", 0.0),
        "cache.puts": counts.get("cache.puts", 0),
        "cache.bytes_written": counts.get("cache.bytes_written", 0),
        "cache.get_s": selfs.get("cache.get", 0.0),
        "cache.gets": gets,
        "cache.hit_ratio": hit_ratio(counts.get("cache.hits", 0), gets),
        "scenario.compile_s": selfs.get("scenario", 0.0),
        "render.self_s": selfs.get("render", 0.0),
        "executor.self_s": selfs.get("executor", 0.0),
        "executor.parallel_efficiency": layers["busy_s"] * speed
        / (spec["workers"] * wall_ref_s(untraced)),
        "fleet.requests": calls.get("fleet", 0),
        "fleet.request_s": selfs.get("fleet", 0.0),
        "fleet.outcome_polls": counts.get("fleet.outcome_polls", 0),
        "fleet.lease_waits": traced["notes"].get("lease_waits", 0),
        "fleet.overhead_ratio": (
            wall_ref_s(untraced) / wall_ref_s(reference) if fleet else 0.0),
        "unattributed_s": layers["unattributed_s"] * speed,
        "trace.overhead_ratio": wall_ref_s(traced) / wall_ref_s(base) - 1.0,
        "check.paper_gap_pp": traced.get("paper_gap_pp", 0.0),
    }
    info = {
        "traced_wall_s": traced["wall_s"],
        "untraced_wall_s": base["wall_s"],
        "traced_host_speed": speed,
        "root_s": layers["root_s"],
        "unattributed_share": layers["unattributed_s"] / layers["root_s"],
        "chrome_trace": traced.get("chrome_trace"),
    }
    return metrics, attempted, failed, [untraced, traced], info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/repro/__init__.py", "tests/golden/grid.json")
               if not Path(p).is_file()]
    if missing:
        sys.stderr.write(
            f"run from the repository root: missing {', '.join(missing)}\n"
        )
        return 2

    # SIGTERM unwinds like Ctrl-C, so a running child is stopped too.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    runner = Runner(args.workload, args.seed)
    if args.trace:
        metrics, attempted, failed, records, info = run_traced(runner)
        units = {name: entry[0] for name, entry in PER_LAYER.items()}
    else:
        metrics, attempted, failed, records, info = run_untraced(
            runner, args.seconds)
        units = END_TO_END
    correct = (failed == 0 and runner.crashed == 0
               and set(metrics) == set(units))
    runs = records[0]["notes"].get("runs", 1) if records else None
    print(f"# workload={args.workload} seed={args.seed} runs={runs} "
          f"trace={args.trace} children={runner.count} "
          f"wall={runner.elapsed():.1f}s")
    for key, value in sorted(info.items()):
        print(f"# {key} = {value}")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(f"# attempted={attempted} failed={failed} correct={correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
