"""JSON-over-HTTP wire protocol shared by coordinator and workers.

Endpoints (all bodies are JSON; the server is stdlib
:mod:`http.server`, the client stdlib :mod:`urllib` — zero new deps,
localhost-friendly):

* ``POST /lease {"worker": id}`` ->
  ``{"state": "task", "task": ..., "lease": id, "deadline_s": t,
  "heartbeat_s": t}`` | ``{"state": "wait", "retry_after_s": t}`` |
  ``{"state": "wait", "retry_after_s": t, "backoff": true}`` |
  ``{"state": "drained"}``. With nothing pending at all, the request
  is held for up to the coordinator's poll interval until a task
  arrives; a hold that ends empty answers ``retry_after_s`` 0. A
  backoff wait (every pending task is gated) is answered at once.
  A worker leases one task per request.
* ``POST /heartbeat {"lease": id}`` -> ``{"ok": bool}``
* ``POST /result {"lease": id, "key": k, "payload": outcome}`` /
  ``POST /result {"lease": id, "key": k, "error": msg}`` ->
  ``{"ok": true, "state": "done" | "duplicate" | "requeued"}``, one
  result per request
* ``POST /submit {"tasks": [task payloads]}`` ->
  ``{"accepted": n, "tasks": [{"key": k, "state": "cached" |
  "queued" | "known"}, ...]}``
* ``POST /outcomes {"keys": [k, ...], "wait_s": t}`` ->
  ``{"outcomes": {k: payload}, "failed": {k: last_error},
  "missing": [k, ...]}``. The request is held until none of the keys
  is pending or leased, for at most ``wait_s`` (clamped into
  ``[0, OUTCOME_WAIT_S]``); the coordinator's drain ends the hold,
  and a draining coordinator answers at once. A key is an outcome when the cache holds its payload, failed when
  its task dead-lettered, and missing when it is neither open in the
  queue nor failed nor cached (never submitted, or its entry
  vanished). Keys still open when the hold ends appear in none of
  the three.
* ``GET /status`` -> queue snapshot + scenario/manifest info

A malformed request body is answered with HTTP 400 and
``{"error": msg}``; an unknown path with 404.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Any, Optional

from repro.errors import FleetError

#: Client-side request timeout (seconds) for one HTTP round trip.
REQUEST_TIMEOUT = 30.0

#: Longest a coordinator holds one ``/outcomes`` request (seconds),
#: well inside :data:`REQUEST_TIMEOUT`.
OUTCOME_WAIT_S = 10.0


class CoordinatorUnreachable(FleetError):
    """The coordinator did not answer (refused, timed out, went away)."""


class ProtocolError(FleetError):
    """The coordinator answered with an error or a malformed body.

    ``code`` carries the HTTP status (0 for malformed-body failures).
    """

    def __init__(self, message: str, code: int = 0):
        super().__init__(message)
        self.code = code


def request_json(
    url: str,
    payload: Optional[Any] = None,
    timeout: float = REQUEST_TIMEOUT,
) -> Any:
    """One JSON round trip: POST ``payload`` (or GET when ``None``).

    Raises :class:`CoordinatorUnreachable` for transport failures and
    :class:`ProtocolError` for HTTP errors or non-JSON bodies; the
    error body's ``error`` field (when present) is surfaced verbatim.
    """
    data = None
    headers = {"Accept": "application/json"}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(url, data=data, headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            body = response.read()
    except urllib.error.HTTPError as exc:
        detail = ""
        try:
            detail = json.loads(exc.read().decode("utf-8")).get("error", "")
        except Exception:
            pass
        raise ProtocolError(
            f"{url} -> HTTP {exc.code}" + (f": {detail}" if detail else ""),
            code=exc.code,
        ) from exc
    except (urllib.error.URLError, TimeoutError, ConnectionError) as exc:
        raise CoordinatorUnreachable(f"{url}: {exc}") from exc
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"{url} returned a non-JSON body") from exc


def normalize_url(url: str) -> str:
    """Accept ``host:port``, ``http://host:port`` and trailing slashes."""
    url = url.strip().rstrip("/")
    if not url:
        raise FleetError("coordinator URL must be non-empty")
    if "://" not in url:
        url = f"http://{url}"
    return url
