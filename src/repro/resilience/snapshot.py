"""Versioned, checksummed system snapshots with deterministic restore.

The Eclipse model is built from explicit, local state — stream-table
rows with cumulative credits, task tables, cyclic buffers in shared
SRAM, cache line maps, scheduler cursors, in-flight fabric messages —
which makes the *whole* system state capturable as plain data
(:meth:`repro.core.system.EclipseSystem.export_state`).  What is NOT
capturable are the live Python generator frames of the coprocessor
processes.  A snapshot therefore stores two things:

1. a **replay anchor**: the workload factory reference plus its kwargs
   and the boundary cycle, from which a bit-exact twin of the
   interrupted system can be rebuilt (the simulator is fully
   deterministic: integer time, seeded RNGs, insertion-order
   tie-breaking), and
2. the **captured state** itself plus its SHA-256 digest, which
   :func:`restore` re-derives from the replayed twin and compares —
   so a nondeterministic workload, a corrupted snapshot file, or state
   rotted between capture and restore is *detected*, never silently
   resumed.

``restore(snapshot).run()`` is therefore byte-identical to an
uninterrupted run, and the digest cross-check is what earns the word
"checkpoint" rather than "restart".  File format: one JSON document
with a whole-body checksum (see :meth:`SystemSnapshot.save`).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.system import EclipseSystem
from repro.kahn.graph import ApplicationGraph
from repro.runner import resolve_factory

__all__ = [
    "SNAPSHOT_SCHEMA",
    "SnapshotError",
    "SystemSnapshot",
    "capture",
    "restore",
    "encode_value",
    "decode_value",
    "state_digest",
    "diff_states",
]

#: Schema tag written into every snapshot file; bumped on breaking
#: format changes so a stale file fails loudly instead of resuming
#: garbage.
SNAPSHOT_SCHEMA = "repro.snapshot/1"


class SnapshotError(RuntimeError):
    """A snapshot could not be saved, loaded, or faithfully restored
    (checksum mismatch, schema drift, or replay divergence)."""


# ----------------------------------------------------------------------
# JSON-safe kwargs codec (factories may take bytes, e.g. a bitstream)
# ----------------------------------------------------------------------
def encode_value(value: Any) -> Any:
    """Encode one factory kwarg into a JSON-safe form (bytes tagged)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray, memoryview)):
        return {"__bytes__": bytes(value).hex()}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return {
            "__to_dict__": f"{type(value).__module__}:{type(value).__qualname__}",
            "value": to_dict(),
        }
    raise SnapshotError(
        f"cannot encode factory kwarg of type {type(value).__name__} "
        f"into a snapshot (not JSON-safe and no to_dict())"
    )


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if isinstance(value, dict):
        if set(value) == {"__bytes__"}:
            return bytes.fromhex(value["__bytes__"])
        if set(value) == {"__to_dict__", "value"}:
            cls = resolve_factory(value["__to_dict__"])
            return cls.from_dict(value["value"])
        return {k: decode_value(v) for k, v in value.items()}
    return value


def state_digest(state: Dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON form of an exported state dict."""
    blob = json.dumps(state, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def factory_ref(factory: Union[str, Callable]) -> str:
    """Canonical ``module:qualname`` reference for a workload factory.

    The reference must round-trip through :func:`repro.runner.
    resolve_factory` to the same object — lambdas and closures cannot
    anchor a replay and are rejected here, at capture time."""
    if isinstance(factory, str):
        resolve_factory(factory)  # raises if not importable
        return factory
    ref = f"{factory.__module__}:{getattr(factory, '__qualname__', '')}"
    try:
        resolved = resolve_factory(ref)
    except Exception as e:
        raise SnapshotError(
            f"factory {factory!r} is not snapshot-anchorable: {e}"
        ) from e
    if resolved is not factory:
        raise SnapshotError(
            f"factory {factory!r} does not round-trip through {ref!r}; "
            f"use a module-level function"
        )
    return ref


# ----------------------------------------------------------------------
# the snapshot object
# ----------------------------------------------------------------------
@dataclass
class SystemSnapshot:
    """One captured checkpoint of a running :class:`EclipseSystem`."""

    schema: str
    factory: str
    kwargs: Dict[str, Any]
    cycle: int
    state: Dict[str, Any]
    digest: str

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "factory": self.factory,
            "kwargs": {k: encode_value(v) for k, v in sorted(self.kwargs.items())},
            "cycle": self.cycle,
            "state": self.state,
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SystemSnapshot":
        if data.get("schema") != SNAPSHOT_SCHEMA:
            raise SnapshotError(
                f"unsupported snapshot schema {data.get('schema')!r} "
                f"(this build reads {SNAPSHOT_SCHEMA!r})"
            )
        return cls(
            schema=data["schema"],
            factory=data["factory"],
            kwargs={k: decode_value(v) for k, v in data["kwargs"].items()},
            cycle=data["cycle"],
            state=data["state"],
            digest=data["digest"],
        )

    # ------------------------------------------------------------------
    # file format: {"checksum": sha256(body), "body": {...}} — a
    # truncated or bit-flipped file fails the checksum before anything
    # tries to interpret it.
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Atomically write the snapshot (write temp + rename)."""
        body = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
        doc = json.dumps({"checksum": checksum, "body": json.loads(body)},
                         sort_keys=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(doc)
            fh.write("\n")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "SystemSnapshot":
        """Load and verify a snapshot file (checksum, schema, digest)."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as e:  # incl. bad JSON and bad UTF-8
            raise SnapshotError(f"cannot read snapshot {path!r}: {e}") from e
        if not isinstance(doc, dict) or "checksum" not in doc or "body" not in doc:
            raise SnapshotError(f"{path!r} is not a snapshot file")
        body = json.dumps(doc["body"], sort_keys=True, separators=(",", ":"))
        checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
        if checksum != doc["checksum"]:
            raise SnapshotError(
                f"snapshot {path!r} failed its checksum (corrupted or truncated)"
            )
        snap = cls.from_dict(doc["body"])
        if state_digest(snap.state) != snap.digest:
            raise SnapshotError(
                f"snapshot {path!r}: state does not match its recorded digest"
            )
        return snap


# ----------------------------------------------------------------------
# capture / restore
# ----------------------------------------------------------------------
def _build(factory_str: str, kwargs: Dict[str, Any]) -> EclipseSystem:
    """Rebuild and configure a system from its replay anchor."""
    factory = resolve_factory(factory_str)
    built = factory(**kwargs)
    if isinstance(built, tuple):
        system, graph = built
    else:  # pragma: no cover - factories in this repo return pairs
        system, graph = built, None
    if not isinstance(system, EclipseSystem):
        raise SnapshotError(
            f"factory {factory_str!r} returned {type(system).__name__}, "
            f"not an EclipseSystem"
        )
    if graph is not None and not system._configured:
        if not isinstance(graph, ApplicationGraph):
            raise SnapshotError(
                f"factory {factory_str!r} returned a second value of type "
                f"{type(graph).__name__}, not an ApplicationGraph"
            )
        system.configure(graph)
    return system


def capture(
    system: EclipseSystem,
    factory: Union[str, Callable],
    kwargs: Optional[Dict[str, Any]] = None,
) -> SystemSnapshot:
    """Capture the running system's state at the current cycle.

    ``factory``/``kwargs`` are the replay anchor: calling the factory
    with those kwargs (and configuring the returned graph) must
    reproduce this run — the same contract :class:`repro.runner.
    RunSpec` already imposes for process fan-out.
    """
    state = system.export_state()
    return SystemSnapshot(
        schema=SNAPSHOT_SCHEMA,
        factory=factory_ref(factory),
        kwargs=dict(kwargs or {}),
        cycle=system.sim.now,
        state=state,
        digest=state_digest(state),
    )


def restore(snapshot: SystemSnapshot, verify: bool = True) -> EclipseSystem:
    """Reconstruct the captured system, positioned at ``snapshot.cycle``.

    Rebuilds from the replay anchor and advances to the boundary; with
    ``verify`` (the default) the reconstructed state's digest must equal
    the captured one, else :class:`SnapshotError` names the diverging
    state paths.  The returned system continues with ``run()`` exactly
    as the interrupted original would have.
    """
    system = _build(snapshot.factory, dict(snapshot.kwargs))
    system.advance(snapshot.cycle)
    if verify:
        state = system.export_state()
        digest = state_digest(state)
        if digest != snapshot.digest:
            paths = diff_states(snapshot.state, state)
            shown = ", ".join(paths[:8]) or "<structure differs>"
            raise SnapshotError(
                f"restore diverged from snapshot at cycle {snapshot.cycle}: "
                f"digest {digest[:12]} != {snapshot.digest[:12]}; "
                f"first differing paths: {shown}"
            )
    return system


def diff_states(a: Any, b: Any, prefix: str = "") -> List[str]:
    """Paths where two exported states differ (for error messages)."""
    if isinstance(a, dict) and isinstance(b, dict):
        out: List[str] = []
        for key in sorted(set(a) | set(b)):
            sub = f"{prefix}.{key}" if prefix else str(key)
            if key not in a or key not in b:
                out.append(sub)
            else:
                out.extend(diff_states(a[key], b[key], sub))
        return out
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{prefix}[len {len(a)} != {len(b)}]"]
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out.extend(diff_states(x, y, f"{prefix}[{i}]"))
        return out
    return [] if a == b else [prefix or "<root>"]
