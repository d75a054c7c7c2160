"""The shared evaluation grid behind Figs. 4, 5 and 6.

The paper evaluates the cross-product of four systems, five models,
batch sizes 8-64 and two strategies (with infeasible cells dropped).
The grid is specified declaratively as a
:class:`~repro.scenario.spec.SweepSpec` (:func:`grid_spec`), the spec
Figs. 4-6 register with the scenario catalog. Each of the three
figures is a view of the same resolved cells, matching the paper's
workflow; the claims resolve the grid once for all three.

The scenario runner resolves the cells through the execution service
(:mod:`repro.exec`) and therefore through whichever executor the CLI
configured: with ``--jobs N`` they fan out across worker processes,
``--executor remote`` hands them to a fleet coordinator, ``scenario
run --shard i/N`` runs one deterministic slice per machine, and with the
result cache warm (in memory or on disk via ``--cache-dir``)
regenerating a figure performs zero new simulations.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.modes import ExecutionMode
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


def grid_spec(quick: bool = True) -> SweepSpec:
    """The canonical evaluation grid as a declarative sweep spec."""
    return SweepSpec(
        name="grid",
        description="the shared Figs. 4-6 evaluation grid",
        base={"runs": 1, "jitter_sigma": 0.02},
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
