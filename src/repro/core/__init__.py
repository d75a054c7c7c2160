"""The paper's primary contribution: overlap characterization.

Defines the three execution scenarios (overlapped / sequential / ideal),
the metrics of Section IV-D (Eqs. 1-5), memory-feasibility checks, the
experiment runner with N-run averaging, sweep rows, and the
matmul-all-reduce microbenchmark of Fig. 8.
"""

from repro.core.modes import ExecutionMode
from repro.core.metrics import OverlapMetrics, compute_metrics
from repro.core.feasibility import FeasibilityReport, check_feasibility
from repro.core.experiment import (
    ExperimentConfig,
    ExperimentResult,
    ModeStats,
    run_experiment,
)
from repro.core.sweep import GridRow
from repro.core.microbench import MicrobenchResult, run_microbench

__all__ = [
    "ExecutionMode",
    "ExperimentConfig",
    "ExperimentResult",
    "FeasibilityReport",
    "GridRow",
    "MicrobenchResult",
    "ModeStats",
    "OverlapMetrics",
    "check_feasibility",
    "compute_metrics",
    "run_experiment",
    "run_microbench",
]
