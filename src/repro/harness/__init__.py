"""Experiment harness: regenerates every table and figure of the paper.

Each ``figures.figN`` module produces the data behind the corresponding
paper artifact and renders it as text tables / ASCII plots;
:mod:`repro.harness.claims` checks the paper's claims against those
rows (``python -m repro scenario run claims`` renders
``EXPERIMENTS.md``).
"""

from repro.harness.report import format_row, render_table
from repro.harness.tables import table1_gpus, table2_workloads
from repro.harness.io import write_json

__all__ = [
    "format_row",
    "render_table",
    "table1_gpus",
    "table2_workloads",
    "write_json",
]
