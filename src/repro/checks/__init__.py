"""Static invariant checkers for the repro codebase.

The simulator's correctness rests on contracts no single runtime test
exercises end to end: the engines must dispatch every event kind,
config fields must ride the job cache key, fleet state needs
consistent locking, and the coordinator/worker pair must agree on a
wire vocabulary.

This package encodes those contracts as AST-level checks over the
source tree (no module under check is ever imported), surfaced through
``repro check``. Findings carry stable codes; individual lines opt out
with ``# repro: allow[CODE]`` pragmas and legacy findings can be
grandfathered through a JSON baseline file.
"""

from repro.checks.findings import CODES, Finding
from repro.checks.project import ParsedFile, Project
from repro.checks.runner import (
    ALL_SERIES,
    CheckReport,
    format_findings,
    run_checks,
)

__all__ = [
    "ALL_SERIES",
    "CODES",
    "CheckReport",
    "Finding",
    "ParsedFile",
    "Project",
    "format_findings",
    "run_checks",
]
