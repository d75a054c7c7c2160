"""Sweep rows and their headline aggregates.

Sweeps are *specified* declaratively as
:class:`~repro.scenario.spec.SweepSpec` objects and *executed* by
:func:`repro.scenario.runner.run_spec` as batches of
:class:`~repro.exec.job.SimJob` through an
:class:`~repro.exec.service.ExecutionService`: cells already in the
result cache are served without simulating, the rest fan out across
the configured executor (``--jobs N``), and infeasible cells come back
as skipped :class:`GridRow` cells rather than exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.core.experiment import ExperimentConfig, ExperimentResult


@dataclass
class GridRow:
    """One sweep cell: either a result or the reason it was skipped."""

    config: ExperimentConfig
    result: Optional[ExperimentResult]
    skipped_reason: Optional[str] = None

    @property
    def ran(self) -> bool:
        return self.result is not None


def feasible_rows(rows: Iterable[GridRow]) -> List[GridRow]:
    """Only the cells that actually ran."""
    return [row for row in rows if row.ran]


def summarize_slowdowns(rows: Iterable[GridRow]) -> dict:
    """Aggregate slowdown statistics over a grid (the abstract's
    headline numbers: average and maximum compute slowdown, average and
    maximum sequential-vs-overlapped gap)."""
    ran = feasible_rows(rows)
    if not ran:
        return {
            "cells": 0,
            "mean_compute_slowdown": 0.0,
            "max_compute_slowdown": 0.0,
            "mean_sequential_penalty": 0.0,
            "max_sequential_penalty": 0.0,
        }
    slowdowns = [row.result.metrics.compute_slowdown for row in ran]
    seq_penalties = [
        row.result.metrics.sequential_vs_overlapped for row in ran
    ]
    return {
        "cells": len(ran),
        "mean_compute_slowdown": sum(slowdowns) / len(slowdowns),
        "max_compute_slowdown": max(slowdowns),
        "mean_sequential_penalty": sum(seq_penalties) / len(seq_penalties),
        "max_sequential_penalty": max(seq_penalties),
    }
