#!/usr/bin/env python
"""Soft perf gate: compare a fresh BENCH_engine.json to the baseline.

CI regenerates the benchmark record with the committed baseline's own
protocol (``bench_engine_hotpath.py --repeats 3``, full quick grid)
and calls this script against the committed ``BENCH_engine.json``.

The *gated* metrics are ratios measured within one record:

* ``default`` — the incremental engine's speedup **relative to the
  reference engine measured in the same run**
  (``single_cell.speedup``, ``grid.speedup``)
* ``setup`` — the prepared-layer amortization, the incremental
  engine's cold setup over its warm setup
  (``single_cell.incremental.setup_cold_over_warm``)

Ratios within one record cancel out the machine: a CI runner that is
uniformly 40% slower than the committer's box produces the same
speedups, while a hot-path pessimization in the incremental engine
(the common regression mode — the reference path barely changes)
drags its ratio down. The gate fails (exit 1) when a fresh ratio
drops more than the series' threshold below the baseline's.
Absolute throughputs are printed for context but never gate, since
they track hardware. Metrics missing from either record (e.g. a
``--skip-grid`` run) are reported and skipped, never failed.

Usage::

    python benchmarks/check_bench_regression.py BASELINE FRESH \
        [--threshold 0.20] [--threshold-setup 0.60]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

#: series name -> (label, path into the record) for every gated
#: metric — ratios measured within one run, so machine-independent.
GATED_SERIES: Tuple[Tuple[str, Tuple[Tuple[str, Tuple[str, ...]], ...]], ...] = (
    (
        "default",
        (
            ("single-cell incremental/reference speedup",
             ("single_cell", "speedup")),
            ("quick-grid incremental/reference speedup",
             ("grid", "speedup")),
        ),
    ),
    # The prepared-layer amortization: cold setup (first construction,
    # builds the PreparedSim tables) over warm setup (prep-cache hit).
    # A ratio within one record, so machine-independent like the
    # speedups; a regression here means per-cell setup stopped being
    # amortized across cells sharing a plan.
    (
        "setup",
        (
            ("single-cell incremental cold/warm setup ratio",
             ("single_cell", "incremental", "setup_cold_over_warm")),
        ),
    ),
)

#: Reported for context only; absolute throughput tracks hardware.
INFO_METRICS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("single-cell events/s", ("single_cell", "incremental", "events_per_s")),
    ("quick-grid cells/s", ("grid", "incremental", "cells_per_s")),
)


def _lookup(record: dict, path: Tuple[str, ...]) -> Optional[float]:
    node = record
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def compare(
    baseline: dict, fresh: dict, thresholds: Dict[str, float]
) -> Iterator[Tuple[str, str, Optional[float], Optional[float], bool]]:
    """Yield (series, label, baseline, fresh, regressed?) rows."""
    for series, metrics in GATED_SERIES:
        threshold = thresholds[series]
        for label, path in metrics:
            base = _lookup(baseline, path)
            new = _lookup(fresh, path)
            if base is None or new is None or base <= 0:
                yield series, label, base, new, False
                continue
            yield series, label, base, new, new < base * (1.0 - threshold)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_engine.json")
    parser.add_argument("fresh", help="freshly measured BENCH_engine.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="relative speedup drop that fails the default "
        "(incremental) series (default: 0.20 = 20%%)",
    )
    parser.add_argument(
        "--threshold-setup",
        type=float,
        default=0.60,
        help="relative drop that fails the cold/warm setup-ratio "
        "series (default: 0.60; sub-millisecond warm setups make "
        "this the noisiest ratio of all, but a genuine loss of "
        "prepared-layer amortization is an order of magnitude, "
        "not a fraction)",
    )
    args = parser.parse_args(argv)
    thresholds = {
        "default": args.threshold,
        "setup": args.threshold_setup,
    }

    records = []
    for path in (args.baseline, args.fresh):
        file = Path(path)
        if not file.exists():
            print(f"bench record not found: {path}", file=sys.stderr)
            return 2
        try:
            records.append(json.loads(file.read_text()))
        except ValueError as exc:
            print(f"unreadable bench record {path}: {exc}", file=sys.stderr)
            return 2
    baseline, fresh = records

    for label, path in INFO_METRICS:
        base, new = _lookup(baseline, path), _lookup(fresh, path)
        if base is not None and new is not None:
            print(
                f"  [info] {label}: baseline {base:.4g} -> fresh {new:.4g} "
                f"(absolute; not gated)"
            )

    failed_series = []
    for series, label, base, new, regressed in compare(
        baseline, fresh, thresholds
    ):
        if base is None or new is None:
            print(f"  [{series}] {label}: not present in both records; "
                  f"skipped")
            continue
        ratio = new / base
        marker = "REGRESSION" if regressed else "ok"
        print(
            f"  [{series}] {label}: baseline {base:.2f}x -> fresh "
            f"{new:.2f}x ({ratio:.2f} of baseline, threshold "
            f"{thresholds[series]:.0%}) [{marker}]"
        )
        if regressed and series not in failed_series:
            failed_series.append(series)
    if failed_series:
        print(
            f"perf gate FAILED: speedup over the reference engine "
            f"dropped beyond threshold in series: "
            f"{', '.join(failed_series)}",
            file=sys.stderr,
        )
        return 1
    print("perf gate ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
