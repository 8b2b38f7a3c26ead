"""Canonical cache keys for run requests.

A content-addressed result cache is only sound if the key function is
**injective over everything that can change the served bytes** and
**stable across processes**.  The key here is a SHA-256 over the
canonical JSON form of the whole request:

* the workload **factory** as its canonical ``module:qualname``
  reference (:func:`repro.resilience.snapshot.factory_ref` — lambdas
  and closures are rejected at key time, exactly as they are at
  snapshot-capture time, because they cannot anchor a replay);
* the factory **kwargs, normalized against the factory's signature
  with defaults applied** — so ``quickstart_run()`` and
  ``quickstart_run(payload_len=4096)`` are *one* cache entry (they
  are the same simulation by construction), while any actual value
  change (obs_level, sample_interval, fault plan/seed, shell or
  coprocessor parameters, payload bytes) produces a different key;
  values are encoded with the snapshot codec, so ``bytes`` payloads
  and ``to_dict``-able parameter dataclasses key on their content;
* the **effective label** (:meth:`repro.runner.RunSpec.describe`),
  because the label is part of the served result bytes — two requests
  that must be served different bytes must never share a key (for an
  unlabelled spec the description is itself a pure function of the
  factory and raw kwargs, so this costs nothing);
* the **execution parameters** that select how the run is produced
  (today: the checkpoint interval of supervised execution).  These
  must never change the result bytes — the resilience suite proves
  supervised == plain — but keying on them means that even a future
  bug in that machinery could only ever cause a cache miss, never
  serve wrong bytes.

Nothing in the key depends on dict insertion order (kwargs are
sorted), on ``PYTHONHASHSEED`` (no Python ``hash()`` anywhere), or on
process identity — the property suite in
``tests/service/test_cache_key.py`` pins all three.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from typing import Any, Dict, Mapping, Optional

from repro.resilience.snapshot import SnapshotError, encode_value, factory_ref
from repro.runner import RunSpec, resolve_factory

__all__ = ["KEY_SCHEMA", "CacheKeyError", "canonical_request", "cache_key"]

#: Schema tag hashed into every key; bump it on any change to the key
#: material or to the served payload's shape, so old store entries miss
#: instead of being misread (history: docs/sweep-service.md).
KEY_SCHEMA = "repro.service.key/2"


class CacheKeyError(ValueError):
    """The request cannot be canonically keyed (unanchorable factory,
    unencodable kwarg)."""


def _normalized_kwargs(factory, kwargs: Mapping[str, Any]) -> Dict[str, Any]:
    """Bind ``kwargs`` to the factory signature and apply defaults, so
    an omitted kwarg and its explicit default value key identically.
    Falls back to the raw kwargs when the signature cannot bind them
    (the execution error will then name the real problem)."""
    try:
        sig = inspect.signature(factory)
        bound = sig.bind(**dict(kwargs))
        bound.apply_defaults()
    except (TypeError, ValueError):
        return dict(kwargs)
    out: Dict[str, Any] = {}
    for name, value in bound.arguments.items():
        param = sig.parameters[name]
        if param.kind is inspect.Parameter.VAR_KEYWORD:
            out.update(value)
        elif param.kind is inspect.Parameter.VAR_POSITIONAL:
            out[name] = list(value)
        else:
            out[name] = value
    return out


def canonical_request(
    spec: RunSpec, checkpoint_interval: Optional[int] = None
) -> Dict[str, Any]:
    """The JSON-safe canonical form of one run request — the exact
    material the cache key digests (useful for debugging a miss)."""
    try:
        ref = factory_ref(spec.factory)
    except (SnapshotError, ImportError, ValueError, TypeError) as e:
        raise CacheKeyError(
            f"request is not cacheable: {e} "
            f"(the factory must be a module-level function or a "
            f"'module:function' string)"
        ) from e
    try:
        factory = resolve_factory(ref)
    except (ImportError, ValueError, TypeError) as e:
        raise CacheKeyError(f"request is not cacheable: {e}") from e
    if not callable(factory):
        raise CacheKeyError(
            f"request is not cacheable: {ref!r} resolves to a "
            f"non-callable {type(factory).__name__}"
        )
    kwargs = _normalized_kwargs(factory, spec.kwargs)
    try:
        encoded = {str(k): encode_value(v) for k, v in sorted(kwargs.items())}
    except SnapshotError as e:
        raise CacheKeyError(f"request is not cacheable: {e}") from e
    return {
        "schema": KEY_SCHEMA,
        "factory": ref,
        "kwargs": encoded,
        "label": spec.describe(),
        "exec": {"checkpoint_interval": checkpoint_interval},
    }


def cache_key(spec: RunSpec, checkpoint_interval: Optional[int] = None) -> str:
    """SHA-256 hex digest of the canonical request."""
    blob = json.dumps(
        canonical_request(spec, checkpoint_interval),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
