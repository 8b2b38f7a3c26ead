"""The tiered observability contract: how much a run records.

The paper's measurement support (§5.4) is hardware counters read over
the control bus plus a periodic sampling process — always on, because
it is cheap silicon.  The reproduction's equivalents (byte histories
for golden-equivalence, time-weighted fill statistics, samplers, op
logs, span tracers) are *software* and dominate the hot path long
before the event loop does.  :class:`ObservabilityLevel` makes that
trade explicit and machine-checkable:

``off``
    Structural counters only (cycles, steps, utilization, cache/bus
    totals — plain integer increments the model needs anyway).  No
    byte histories, no fill statistics, no sampler, no op log, no span
    tracer.  The fastest a run can go.
``counters``
    ``off`` plus the §5.4 time-weighted statistics (stream fill
    mean/max), so :func:`repro.trace.counters.collect_counters` and
    the Figure 9 views are fully populated.  Still no per-commit byte
    recording and no periodic processes.
``series``
    ``counters`` plus periodic processes and structured tracing: the
    :class:`repro.trace.sampler.Sampler` records its bounded time
    series and the :class:`repro.obs.tracer.SpanTracer` may attach.
    Byte histories stay off.
``full``
    Everything — including the per-stream byte histories that back the
    golden traces and the conformance differential.  **The
    byte-identity contract lives here**: a run at ``full`` is
    bit-for-bit today's behaviour.

The level is carried in :class:`repro.core.config.SystemParams` (field
``obs_level``) and therefore in every canonical RunSpec serialization
and sweep digest: two runs at different levels are different runs, by
construction, and can never be confused in a result cache.

Levels are totally ordered (``OFF < COUNTERS < SERIES < FULL``); the
capability properties (:attr:`fill_stats`, :attr:`series`,
:attr:`spans`, :attr:`histories`, :attr:`oplog`) are what the simulator
and the observers actually consult — new call sites should test a
capability, not compare enum members.

This module is deliberately dependency-free so that
:mod:`repro.core.config` can import it without cycles.
"""

from __future__ import annotations

import enum
from typing import Union

__all__ = ["ObservabilityLevel", "LEVELS", "resolve_level"]

#: Every name ``SystemParams.obs_level`` accepts, in increasing order
#: of cost and detail.
LEVELS = ("off", "counters", "series", "full")


class ObservabilityLevel(enum.IntEnum):
    """One tier of the observability contract (ordered, comparable)."""

    OFF = 0
    COUNTERS = 1
    SERIES = 2
    FULL = 3

    def __str__(self) -> str:  # "full", not "ObservabilityLevel.FULL"
        return self.name.lower()

    # -- parsing --------------------------------------------------------
    @classmethod
    def parse(cls, value: Union[str, "ObservabilityLevel"]) -> "ObservabilityLevel":
        """A level from its canonical name (or an existing level)."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str) and value.lower() in LEVELS:
            return cls[value.upper()]
        raise ValueError(
            f"unknown observability level {value!r} "
            f"(known levels: {', '.join(LEVELS)})"
        )

    # -- capabilities (what the simulator and observers consult) -------
    @property
    def fill_stats(self) -> bool:
        """Record time-weighted stream-fill statistics (§5.4)."""
        return self >= ObservabilityLevel.COUNTERS

    @property
    def series(self) -> bool:
        """Allow the periodic Sampler process to schedule itself."""
        return self >= ObservabilityLevel.SERIES

    @property
    def spans(self) -> bool:
        """Allow the span tracer to record structured trace events."""
        return self >= ObservabilityLevel.SERIES

    @property
    def histories(self) -> bool:
        """Accumulate per-stream byte histories (the golden-equivalence
        evidence; the single most expensive observation)."""
        return self >= ObservabilityLevel.FULL

    @property
    def oplog(self) -> bool:
        """Allow the OpLog to wrap the primitives and record ops."""
        return self >= ObservabilityLevel.FULL


def resolve_level(name: Union[str, ObservabilityLevel]) -> str:
    """Validate a level name, returning its canonical string form.

    Every layer that accepts a level (``SystemParams``, the CLI
    ``--obs-level`` flag, the workload factories) funnels through here,
    so a typo fails with the same clean message everywhere.
    """
    return str(ObservabilityLevel.parse(name))
