"""Checker registry, suppression pipeline, and report formatting."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.checks.baseline import load_baseline, split_by_baseline
from repro.checks.cachekey import check_cachekey
from repro.checks.determinism import check_determinism
from repro.checks.findings import CODES, Finding
from repro.checks.lockdiscipline import check_lockdiscipline
from repro.checks.pragmas import file_pragmas, is_suppressed
from repro.checks.project import Project
from repro.checks.tierparity import check_tierparity
from repro.checks.wire import check_wire
from repro.errors import ConfigurationError

Checker = Callable[[Project], Iterator[Finding]]

#: series letter -> (human name, checker entry point).
CHECKERS: Dict[str, Tuple[str, Checker]] = {
    "D": ("determinism", check_determinism),
    "C": ("cache-key completeness", check_cachekey),
    "T": ("engine dispatch", check_tierparity),
    "L": ("lock discipline", check_lockdiscipline),
    "W": ("wire contract", check_wire),
}

ALL_SERIES: Tuple[str, ...] = tuple(sorted(CHECKERS))


@dataclass
class CheckReport:
    """Outcome of one ``repro check`` run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    grandfathered: List[Finding] = field(default_factory=list)
    stale_baseline: List[Tuple[str, str, str]] = field(default_factory=list)
    series: Tuple[str, ...] = ALL_SERIES
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_payload(self) -> dict:
        return {
            "ok": self.ok,
            "series": list(self.series),
            "files_scanned": self.files_scanned,
            "findings": [f.to_payload() for f in self.findings],
            "suppressed": [f.to_payload() for f in self.suppressed],
            "grandfathered": [f.to_payload() for f in self.grandfathered],
            "stale_baseline": [list(key) for key in self.stale_baseline],
        }


def normalize_series(selection: Optional[str]) -> Tuple[str, ...]:
    """Parse ``--select`` (e.g. ``"D,T"``) into known series letters."""
    if not selection:
        return ALL_SERIES
    series = []
    for raw in selection.split(","):
        letter = raw.strip().upper()
        if not letter:
            continue
        if letter not in CHECKERS:
            raise ConfigurationError(
                f"unknown checker series {letter!r} "
                f"(known: {', '.join(ALL_SERIES)})"
            )
        if letter not in series:
            series.append(letter)
    return tuple(series) or ALL_SERIES


def run_checks(
    root: Path,
    select: Optional[str] = None,
    baseline: Optional[Path] = None,
) -> CheckReport:
    """Run the selected checker series over the tree at ``root``."""
    project = Project.load(Path(root))
    series = normalize_series(select)
    raw: List[Finding] = []
    for letter in series:
        _, checker = CHECKERS[letter]
        raw.extend(checker(project))
    raw.sort(key=Finding.sort_key)

    active: List[Finding] = []
    suppressed: List[Finding] = []
    pragma_cache: Dict[str, Dict[int, frozenset]] = {}
    for finding in raw:
        pragmas = pragma_cache.get(finding.file)
        if pragmas is None:
            pf = project.get(finding.file)
            pragmas = file_pragmas(pf.lines) if pf is not None else {}
            pragma_cache[finding.file] = pragmas
        codes = pragmas.get(finding.line, frozenset())
        if is_suppressed(finding.code, codes):
            suppressed.append(finding)
        else:
            active.append(finding)

    grandfathered: List[Finding] = []
    stale: List[Tuple[str, str, str]] = []
    if baseline is not None:
        entries = load_baseline(baseline)
        active, grandfathered, stale = split_by_baseline(active, entries)

    return CheckReport(
        findings=active,
        suppressed=suppressed,
        grandfathered=grandfathered,
        stale_baseline=stale,
        series=series,
        files_scanned=len(project.files),
    )


def format_findings(report: CheckReport, fmt: str = "text") -> str:
    """Render a report as ``text`` or ``json``."""
    if fmt == "json":
        return json.dumps(report.to_payload(), indent=2, sort_keys=True)
    if fmt != "text":
        raise ConfigurationError(f"unknown check format {fmt!r}")
    lines: List[str] = []
    for finding in report.findings:
        lines.append(finding.render())
    names = ", ".join(
        f"{letter}:{CHECKERS[letter][0]}" for letter in report.series
    )
    summary = (
        f"{len(report.findings)} finding(s) from {names} "
        f"over {report.files_scanned} file(s)"
    )
    extras: List[str] = []
    if report.suppressed:
        extras.append(f"{len(report.suppressed)} pragma-suppressed")
    if report.grandfathered:
        extras.append(f"{len(report.grandfathered)} baselined")
    if report.stale_baseline:
        extras.append(f"{len(report.stale_baseline)} stale baseline entries")
    if extras:
        summary += f" ({'; '.join(extras)})"
    lines.append(summary)
    if report.stale_baseline:
        for code, relpath, message in report.stale_baseline:
            lines.append(
                f"stale baseline entry: {code} {relpath}: {message}"
            )
    return "\n".join(lines)


def iter_codes() -> Iterable[Tuple[str, str]]:
    """(code, description) pairs, sorted — for docs and ``--list-codes``."""
    return sorted(CODES.items())
