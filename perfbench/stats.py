"""Order statistics and span self-time, the two computations every
reported number goes through.

Kept free of any ``repro`` import so the unit checks in
``test_helpers.py`` run without the simulator on the path.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from typing import Dict, Iterable, Mapping, Sequence, Tuple

__all__ = [
    "median",
    "percentile",
    "self_times",
    "histories_digest",
]


def median(values: Sequence[float]) -> float:
    """The middle value; the mean of the two middle ones for an even count."""
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100) with linear interpolation
    between closest ranks: rank ``(n - 1) * p / 100`` on the sorted
    values, so ``percentile(v, 50) == median(v)``."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(ordered[lo])
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo))


def self_times(spans: Iterable[Sequence]) -> Tuple[Dict[str, int], Dict[str, int], Dict[str, int]]:
    """Per-name self time, total time and call count of a span list.

    Each span is ``(name, start, end, parent, ...)`` where ``parent``
    is the index of the enclosing span in the same list, or -1 for a
    root.  A span's self time is its duration minus the durations of
    its direct children; children nest inside their parent on one
    thread, so the subtraction never double-counts.  Returns
    ``(self_by_name, total_by_name, calls_by_name)`` in the span
    clock's units.
    """
    spans = list(spans)
    child = [0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            child[parent] += span[2] - span[1]
    self_t: Dict[str, int] = {}
    total: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    for i, span in enumerate(spans):
        name = span[0]
        dur = span[2] - span[1]
        self_t[name] = self_t.get(name, 0) + dur - child[i]
        total[name] = total.get(name, 0) + dur
        calls[name] = calls.get(name, 0) + 1
    return self_t, total, calls


def histories_digest(histories: Mapping[str, bytes]) -> str:
    """SHA-256 over the per-stream byte histories in name order."""
    h = hashlib.sha256()
    for name in sorted(histories):
        h.update(name.encode())
        h.update(b"\x00")
        h.update(bytes(histories[name]))
        h.update(b"\x01")
    return h.hexdigest()
