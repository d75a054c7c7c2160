"""JSON export of harness results."""

from __future__ import annotations

import json
from pathlib import Path


def write_json(path: "str | Path", payload: object, indent: int = 2) -> None:
    """Write any JSON-serializable payload."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=indent, default=_coerce)


def _coerce(value: object) -> object:
    """Fallback encoder for dataclasses/enums used in results."""
    if hasattr(value, "value"):
        return getattr(value, "value")
    if hasattr(value, "__dict__"):
        return vars(value)
    return str(value)
