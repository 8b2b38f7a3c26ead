"""Warm-start memoization of run prefixes via PR-4 snapshots.

A checkpointed execution writes its snapshots into the request's
per-key directory (:meth:`repro.service.store.ResultStore.
checkpoint_dir`).  They outlive the run, so when the *same* request is
computed again — its cache entry was evicted after corruption, an
operator cleared the objects tree — :func:`repro.resilience.supervisor.
run_checkpointed` restores the latest snapshot (digest-verified, as
always) and simulates only the remaining suffix.  Byte-identity is not
at risk: ``restore(snapshot).run()`` is proven byte-identical to an
uninterrupted run by the resilience suite, and the digest cross-check
turns a stale or corrupted checkpoint into a clean ``SnapshotError``,
upon which the service deletes the checkpoint and computes the request
from scratch.
"""

from __future__ import annotations

import json
import os
from typing import Optional

__all__ = ["checkpoint_cycle"]


def checkpoint_cycle(ckpt_dir: str) -> Optional[int]:
    """The boundary cycle of the surviving snapshot, or None when there
    is none (or it does not parse).

    Cheap peek for logging/metrics — the authoritative verification
    (checksum, schema, replay digest) happens inside
    :meth:`repro.resilience.snapshot.SystemSnapshot.load`/``restore``
    when the worker actually resumes.
    """
    path = os.path.join(ckpt_dir, "run-000.ckpt.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return int(doc["body"]["cycle"])
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
        return None
