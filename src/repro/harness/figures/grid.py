"""The shared evaluation grid behind Figs. 4, 5 and 6.

The paper evaluates the cross-product of four systems, five models,
batch sizes 8-64 and two strategies (with infeasible cells dropped).
The grid is specified declaratively as a
:class:`~repro.scenario.spec.SweepSpec` (:func:`grid_spec`) — the spec
Figs. 4-6 register with the scenario catalog — and run once, viewed
three ways, matching the paper's workflow; it is memoised per
(quick, runs) so co-located benchmarks reuse it within a session.

The cells themselves go through the execution service
(:mod:`repro.exec`) and therefore through whichever executor the CLI
configured: with ``--jobs N`` they fan out across worker processes,
``--executor remote`` hands them to a fleet coordinator, ``scenario
run --shard i/N`` runs one deterministic slice per machine, and with the
result cache warm (in memory or on disk via ``--cache-dir``)
regenerating a figure performs zero new simulations.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from repro.core.modes import ExecutionMode
from repro.core.sweep import GridRow
from repro.scenario.spec import SweepSpec

ALL_GPUS: Tuple[str, ...] = ("A100", "H100", "MI210", "MI250")
ALL_MODELS: Tuple[str, ...] = (
    "gpt3-xl",
    "gpt3-2.7b",
    "gpt3-6.7b",
    "gpt3-13b",
    "llama2-13b",
)
ALL_BATCHES: Tuple[int, ...] = (8, 16, 32, 64)
ALL_STRATEGIES: Tuple[str, ...] = ("fsdp", "pipeline")

QUICK_GPUS = ALL_GPUS
QUICK_MODELS: Tuple[str, ...] = ("gpt3-xl", "gpt3-2.7b", "gpt3-13b")
QUICK_BATCHES: Tuple[int, ...] = (8, 32)
QUICK_STRATEGIES: Tuple[str, ...] = ("fsdp", "pipeline")


def grid_spec(quick: bool = True, runs: int = 1) -> SweepSpec:
    """The canonical evaluation grid as a declarative sweep spec."""
    return SweepSpec(
        name="grid",
        description="the shared Figs. 4-6 evaluation grid",
        base={"runs": runs, "jitter_sigma": 0.02},
        axes=[
            {"gpu": list(QUICK_GPUS if quick else ALL_GPUS)},
            {"strategy": list(QUICK_STRATEGIES if quick else ALL_STRATEGIES)},
            {"model": list(QUICK_MODELS if quick else ALL_MODELS)},
            {"batch_size": list(QUICK_BATCHES if quick else ALL_BATCHES)},
        ],
        modes=(
            ExecutionMode.OVERLAPPED,
            ExecutionMode.SEQUENTIAL,
            ExecutionMode.IDEAL,
        ),
    )


@lru_cache(maxsize=4)
def evaluation_grid(quick: bool = True, runs: int = 1) -> Tuple[GridRow, ...]:
    """Run (or fetch) the canonical evaluation grid."""
    # Function-level import: keeps figure modules importable without
    # pulling the runner in at module-import time.
    from repro.scenario.runner import run_spec

    return tuple(run_spec(grid_spec(quick=quick, runs=runs)))


def grid_rows(quick: bool = True, runs: int = 1) -> List[GridRow]:
    """Mutable copy of the memoised grid."""
    return list(evaluation_grid(quick=quick, runs=runs))
