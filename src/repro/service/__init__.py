"""Sweep-as-a-service: the async exploration server.

The batch tools (:mod:`repro.runner`, :mod:`repro.explore`,
:mod:`repro.resilience`) answer "run this list of simulations"; this
package answers **"keep answering simulation requests"** — a
long-running asyncio server with a priority queue, a bounded worker
pool, and a content-addressed result cache, exposed over a
newline-delimited JSON protocol (``repro serve`` / ``repro submit``).

The load-bearing guarantees, each pinned by ``tests/service``:

* **sound keys** — the cache key (:mod:`~repro.service.cachekey`) is a
  SHA-256 over the canonical request and is injective over everything
  that can change the served bytes: observability tier, sample
  interval, fault plan and seed, shell/coprocessor parameters, label;
* **byte-identity** — a cache hit serves exactly the bytes a cold run
  of the same request produces (:mod:`~repro.service.store` keeps the
  payload verbatim and digest-verifies every read; corruption is
  evicted and recomputed, never served);
* **single-flight** — N concurrent identical submissions cost exactly
  one execution, and all N receive identical bytes
  (:mod:`~repro.service.server`);
* **no timing in the cache** — wall-clock and attempt counts are
  structurally excluded from cacheable bytes;
* **crash tolerance & warm starts** — with a checkpoint interval
  configured, executions run under the PR-4
  :class:`~repro.resilience.Supervisor` and recomputations resume from
  surviving snapshots (:mod:`~repro.service.warmstart`).

See ``docs/sweep-service.md`` for the protocol and operational story.
"""

from repro.service.cachekey import (
    KEY_SCHEMA,
    CacheKeyError,
    cache_key,
    canonical_request,
)
from repro.service.client import ClientError, ClientResult, SweepClient, submit_once
from repro.service.protocol import PROTOCOL_SCHEMA, ProtocolError
from repro.service.server import (
    ServiceError,
    ServiceResponse,
    SweepService,
    serve_stdio,
    serve_unix,
)
from repro.service.store import (
    STORE_SCHEMA,
    ResultStore,
    payload_result,
    result_payload,
)
from repro.service.warmstart import checkpoint_cycle, has_checkpoint, prepare_recompute

__all__ = [
    "KEY_SCHEMA",
    "PROTOCOL_SCHEMA",
    "STORE_SCHEMA",
    "CacheKeyError",
    "ClientError",
    "ClientResult",
    "ProtocolError",
    "ResultStore",
    "ServiceError",
    "ServiceResponse",
    "SweepClient",
    "SweepService",
    "cache_key",
    "canonical_request",
    "checkpoint_cycle",
    "has_checkpoint",
    "payload_result",
    "prepare_recompute",
    "result_payload",
    "serve_stdio",
    "serve_unix",
    "submit_once",
]
