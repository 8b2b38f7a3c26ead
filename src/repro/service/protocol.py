"""The sweep service's wire protocol: newline-delimited JSON.

One request per line, one terminal response line per request, optional
progress-event lines in between (``"stream": true``).  Every line is a
single JSON object serialized compactly with sorted keys and terminated
by ``\\n`` — no framing beyond the newline, no dependencies beyond the
standard library, equally at home on a unix socket or a pipe pair.

Requests (client → server), matched on ``op``:

``{"op": "submit", "id": 1, "factory": "repro.workloads:quickstart_run",
  "kwargs": {...}, "label": "", "priority": 0, "stream": false}``
    run (or serve from cache) one simulation.  ``kwargs`` values are
    encoded with the snapshot codec (:func:`repro.resilience.snapshot.
    encode_value`) so byte payloads survive JSON.  ``id`` is an opaque
    client token echoed on every response line for that request —
    requests on one connection run concurrently, so responses may
    interleave and the ``id`` is how the client reassembles them.
``{"op": "stats", "id": 2}``
    health snapshot: queue depth, in-flight count, cache/store
    counters, span summary.
``{"op": "ping", "id": 3}`` / ``{"op": "shutdown", "id": 4}``
    liveness probe / orderly stop (the server answers ``bye`` first).

Responses (server → client), matched on ``event``:

``{"event": "result", "id": 1, "ok": true, "cache": "hit|miss|dedup",
  "key": "<sha256>", "payload_sha256": "<sha256>", "result": {...}}``
    the terminal line of a submit.  ``result`` is the parsed canonical
    payload; the byte-level contract is carried by ``payload_sha256``:
    re-canonicalizing ``result`` (sorted keys, two-space indent,
    trailing newline — :func:`repro.service.store.result_payload`'s
    form) must reproduce exactly that digest, and the client verifies
    this on every response.
``{"event": "queued"|"started"|"finished"|"hit"|"joined", "id": 1, ...}``
    streamed progress (only when the submit asked for it).
``{"event": "stats"|"pong"|"bye", "id": ...}``
    terminal lines of the other ops.
``{"event": "error", "id": 1, "error": "..."}``
    the request could not be served (unknown op, unparseable line,
    uncacheable spec).  Never sent for a *failed run* — that is a
    normal ``result`` with ``ok: false``.

Execution note: submissions run on killable worker processes under the
spec's ``timeout`` and ``retries`` (a submit line sets neither); with a
checkpoint interval, the service's ``max_restarts`` bounds restarts.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, TYPE_CHECKING

from repro.resilience.snapshot import SnapshotError, decode_value, encode_value, factory_ref
from repro.runner import RunSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.server import ServiceResponse

__all__ = [
    "PROTOCOL_SCHEMA",
    "STATS_SCHEMA",
    "ProtocolError",
    "dumps_line",
    "loads_line",
    "submit_request",
    "spec_from_wire",
    "result_response",
    "error_response",
]

PROTOCOL_SCHEMA = "repro.service/1"
STATS_SCHEMA = "repro.service.stats/1"


class ProtocolError(ValueError):
    """A wire line or request that cannot be honored."""


# ----------------------------------------------------------------------
# line codec
# ----------------------------------------------------------------------
def dumps_line(obj: Dict[str, Any]) -> bytes:
    """One wire line: compact JSON, sorted keys, newline-terminated."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def loads_line(line: bytes) -> Any:
    try:
        return json.loads(line.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ProtocolError(f"unparseable line: {e}") from e


# ----------------------------------------------------------------------
# request / response builders
# ----------------------------------------------------------------------
def submit_request(
    spec: RunSpec,
    rid: Any,
    priority: int = 0,
    stream: bool = False,
) -> Dict[str, Any]:
    """The wire form of one submission (raises :class:`ProtocolError`
    for specs that cannot cross the wire — lambda factories,
    unencodable kwargs)."""
    try:
        ref = factory_ref(spec.factory)
        kwargs = {str(k): encode_value(v) for k, v in sorted(spec.kwargs.items())}
    except (SnapshotError, ImportError, ValueError, TypeError) as e:
        raise ProtocolError(f"spec is not wire-safe: {e}") from e
    return {
        "op": "submit",
        "id": rid,
        "factory": ref,
        "kwargs": kwargs,
        "label": spec.label,
        "priority": priority,
        "stream": bool(stream),
    }


def spec_from_wire(req: Dict[str, Any]) -> RunSpec:
    """Rebuild the :class:`RunSpec` a submit request describes."""
    factory = req.get("factory")
    if not isinstance(factory, str) or ":" not in factory:
        raise ProtocolError(
            f"submit needs a 'module:function' factory string, got {factory!r}"
        )
    raw = req.get("kwargs", {})
    if not isinstance(raw, dict):
        raise ProtocolError(f"kwargs must be an object, got {type(raw).__name__}")
    try:
        kwargs = {str(k): decode_value(v) for k, v in raw.items()}
    except (SnapshotError, ValueError, TypeError, KeyError) as e:
        raise ProtocolError(f"undecodable kwargs: {e}") from e
    label = req.get("label", "")
    if not isinstance(label, str):
        raise ProtocolError(f"label must be a string, got {type(label).__name__}")
    return RunSpec(factory=factory, kwargs=kwargs, label=label)


def result_response(rid: Any, resp: "ServiceResponse") -> Dict[str, Any]:
    """The terminal line of one submit."""
    return {
        "schema": PROTOCOL_SCHEMA,
        "event": "result",
        "id": rid,
        "ok": resp.ok,
        "cache": resp.cache,
        "key": resp.key,
        "payload_sha256": resp.payload_sha256,
        "result": json.loads(resp.payload.decode("utf-8")),
    }


def error_response(rid: Any, message: str) -> Dict[str, Any]:
    return {"schema": PROTOCOL_SCHEMA, "event": "error", "id": rid,
            "error": message}
