"""The one span recorder: events, bounded ring, Chrome-trace export.

Every timeline the system records lives in a :class:`SpanRecorder`; only
its clock, fixed at construction, sets one use apart from another:
simulated cycles for :class:`repro.obs.tracer.SpanTracer` (spans of a
configured system) and :class:`repro.trace.oplog.OpLog` (one instant
per shell operation); ingest ticks for :func:`repro.net.tick_recorder`;
and, by default, wall-clock microseconds for the layers above the
simulator — the parallel runner and the sweep service — which record
queue-wait windows, execution spans and cache events by explicit
calls.

Wall-clock spans are observability only: they must never leak into a
cached result payload or any other byte-compared artifact (the same
rule the runner's ``include_timing`` switch enforces for its report).

Thread model: the caller names its threads (``recorder.thread("queue")``,
``recorder.thread("worker-0")``); tids are handed out in first-use
order with tid 0 reserved for "system", and the metadata events in the
export carry the names, so Perfetto shows labelled lanes.
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

__all__ = ["SpanEvent", "SpanRecorder", "CHROME_TRACE_SCHEMA"]

#: The subset of the Chrome trace-event format the exporter emits and
#: the ``repro verify`` trace lint checks.  ``ph`` phases: "X" complete
#: span (has ``dur``), "i" instant, "B" span opened but never closed
#: (surfaced for the O301 lint), "M" metadata (process/thread names).
CHROME_TRACE_SCHEMA = {
    "container_key": "traceEvents",
    "phases": ("X", "i", "B", "M"),
    "required": {
        "X": ("name", "cat", "ph", "ts", "dur", "pid", "tid"),
        "i": ("name", "cat", "ph", "ts", "pid", "tid", "s"),
        "B": ("name", "cat", "ph", "ts", "pid", "tid"),
        "M": ("name", "ph", "pid", "args"),
    },
}


# eq=False: an open span is found again by identity, so two spans that
# are equal field for field (same name, thread and start) stay distinct
@dataclass(eq=False)
class SpanEvent:
    """One recorded trace event (a span or an instant)."""

    name: str
    cat: str
    ph: str  # "X" complete span, "i" instant, "B" unclosed open
    ts: int  # start, in the recorder's clock units
    tid: int
    dur: Optional[int] = None  # spans only
    args: Dict[str, object] = field(default_factory=dict)

    def to_chrome(self, pid: int = 1) -> dict:
        ev = {
            "name": self.name,
            "cat": self.cat,
            "ph": self.ph,
            "ts": self.ts,
            "pid": pid,
            "tid": self.tid,
        }
        if self.ph == "X":
            ev["dur"] = self.dur if self.dur is not None else 0
        if self.ph == "i":
            ev["s"] = "t"  # thread-scoped instant
        if self.args:
            ev["args"] = dict(sorted(self.args.items()))
        return ev


class SpanRecorder:
    """Bounded-memory span/instant recorder with Chrome-trace export.

    ``clock`` returns integer timestamps; the default is monotonic wall
    time in microseconds since the recorder was created.  Tests inject
    a deterministic clock to make exports comparable.
    """

    def __init__(
        self,
        capacity: int = 100_000,
        clock: Optional[Callable[[], int]] = None,
        process_name: str = "repro.service",
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.process_name = process_name
        if clock is None:
            t0 = time.monotonic()
            clock = lambda: int((time.monotonic() - t0) * 1_000_000)  # noqa: E731
        self._clock = clock
        self.events: Deque[SpanEvent] = deque(maxlen=capacity)
        self.dropped = 0
        self.total = 0
        #: spans begun but not yet (or never) ended, newest last
        self.open_spans: List[SpanEvent] = []
        self.tids: Dict[str, int] = {"system": 0}

    # ------------------------------------------------------------------
    def now(self) -> int:
        return self._clock()

    def thread(self, name: str) -> int:
        """The tid for ``name``, allocating one on first use."""
        tid = self.tids.get(name)
        if tid is None:
            tid = len(self.tids)
            self.tids[name] = tid
        return tid

    # ------------------------------------------------------------------
    def _record(self, event: SpanEvent) -> None:
        self.total += 1
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(event)

    def instant(self, name: str, cat: str, thread: str = "system", **args) -> None:
        self._record(
            SpanEvent(name, cat, "i", self.now(), self.thread(thread), args=args)
        )

    def begin(self, name: str, cat: str, thread: str = "system", **args) -> SpanEvent:
        span = SpanEvent(name, cat, "B", self.now(), self.thread(thread), args=args)
        self.open_spans.append(span)
        return span

    def end(self, span: SpanEvent, **args) -> None:
        self.open_spans.remove(span)
        span.ph = "X"
        span.dur = max(0, self.now() - span.ts)
        span.args.update(args)
        self._record(span)

    def complete(self, name: str, cat: str, thread: str, ts: int, dur: int, **args) -> None:
        """Record a span whose window the caller already measured
        (e.g. queue wait: enqueue timestamp to dequeue timestamp)."""
        self._record(
            SpanEvent(name, cat, "X", ts, self.thread(thread),
                      dur=max(0, dur), args=args)
        )

    @contextmanager
    def span(self, name: str, cat: str, thread: str = "system", **args):
        s = self.begin(name, cat, thread, **args)
        try:
            yield s
        finally:
            self.end(s)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Deterministic counts: per-category events, drops, opens."""
        by_cat: Dict[str, int] = {}
        for ev in self.events:
            by_cat[ev.cat] = by_cat.get(ev.cat, 0) + 1
        return {
            "events": len(self.events),
            "total": self.total,
            "dropped": self.dropped,
            "open_spans": len(self.open_spans),
            "by_category": dict(sorted(by_cat.items())),
        }

    def _other_data(self) -> dict:
        """The export's ``otherData``: its producer and the ring's losses."""
        return {"process": self.process_name, "dropped": self.dropped, "total": self.total}

    def to_chrome_trace(self) -> dict:
        """The full trace as a Chrome trace-event JSON object.

        Open (never-closed) spans are exported as "B" events so they
        are visible in Perfetto *and* flaggable by the O301 lint.
        """
        pid = 1
        events: List[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": self.process_name},
            }
        ]
        for tname, tid in sorted(self.tids.items(), key=lambda kv: kv[1]):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": tname},
                }
            )
        events.extend(ev.to_chrome(pid) for ev in self.events)
        events.extend(ev.to_chrome(pid) for ev in self.open_spans)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": self._other_data(),
        }

    def write(self, path: str) -> None:
        """Write the Chrome-trace JSON to ``path`` (canonical form:
        sorted keys, 1-space indent — byte-stable across runs)."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    def __len__(self) -> int:
        return len(self.events)
