"""Finding records and the stable code registry."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

#: Every code the checkers can emit, with a one-line description.
#: The README's codes table is generated from this mapping; adding a
#: checker means adding its codes here first (the runner refuses to
#: report a code it does not know about).
CODES: Dict[str, str] = {
    # D-series: determinism.
    "D101": "time.time()/monotonic() used inside simulation/exec/fleet code",
    "D102": "datetime.now()/utcnow()/today() used in deterministic code",
    "D103": "module-level random.* call (unseeded global RNG)",
    "D104": "iteration over an unordered set feeding ordered output",
    "D105": "os.listdir/Path.iterdir/glob result consumed without sorted()",
    # C-series: cache-key completeness.
    "C201": "config dataclass field has an unhashable type annotation",
    "C202": "config dataclass field opts out of comparison/hashing",
    "C203": "cache-key payload unconditionally drops a config field",
    "C204": "to_dict()/payload dict literal misses a dataclass field",
    "C205": "SimConfig field not forwarded by ExperimentConfig.sim_config()",
    # T-series: engine dispatch parity.
    "T301": "EventKind member missing from an engine dispatch chain",
    # L-series: lock discipline.
    "L401": "lock-guarded attribute written outside any lock context",
    "L402": "lock-guarded attribute read outside any lock context",
    # W-series: wire contract.
    "W501": "client references an endpoint the coordinator does not route",
    "W502": "coordinator routes an endpoint no client references",
    "W503": "client sends a payload field no server handler reads",
    "W504": "server handler reads a payload field no client sends",
    "W505": "client reads a response field outside the server vocabulary",
}


@dataclass(frozen=True)
class Finding:
    """One checker hit, anchored to a source location.

    ``file`` is the path relative to the scanned root (posix form), so
    findings are stable across checkouts.
    """

    code: str
    message: str
    file: str
    line: int
    col: int = 0

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown finding code {self.code!r}")

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.file, self.line, self.col, self.code)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "col": self.col,
        }

    def render(self) -> str:
        return f"{self.file}:{self.line}:{self.col}: {self.code} {self.message}"
