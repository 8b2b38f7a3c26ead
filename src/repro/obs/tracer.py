"""Span-based structured tracing with Chrome-trace/Perfetto export.

The §7 simulator was the design tool the Eclipse team used to *look
at* runs; :mod:`repro.trace` reproduces its counter views (Figures
9-10) and op listing.  :class:`SpanTracer` adds the third modern view:
a structured timeline of *spans* — task processing steps, shell
synchronization primitives, bus occupancy windows — plus *instant
events* for cache misses, checkpoints and injected faults, exported in
the Chrome trace-event JSON format that ``ui.perfetto.dev`` (or
``chrome://tracing``) loads directly.

Like :class:`repro.trace.oplog.OpLog`, the tracer attaches to a
*configured* system and wraps methods per instance: pure observation,
zero simulated cost, bounded memory (a ring buffer that drops the
oldest events and counts the drops).  The recorded event stream is a
pure function of the run — the same contract the histories obey — so
exported traces byte-compare across repeated runs.

Span/thread model (deterministic, so exports byte-compare):

* one trace *thread* per coprocessor (sorted names → tids 1..N), where
  its step spans and shell-primitive spans nest;
* one thread per data bus (``read_bus``/``write_bus``) carrying
  occupancy spans from grant to release — never overlapping, because
  the bus is exclusive;
* thread 0 ("system") for instant events that belong to no
  coprocessor: checkpoints (``export_state``) and fault injections.

Timestamps are simulation cycles written into the microsecond field
(``ts``), so 1 cycle renders as 1 µs — Perfetto's timeline is then a
cycle-accurate ruler.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import EclipseSystem

__all__ = ["SpanEvent", "SpanTracer", "CHROME_TRACE_SCHEMA"]

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


@dataclass
class SpanEvent:
    """One recorded trace event (a span or an instant)."""

    name: str
    cat: str
    ph: str  # "X" complete span, "i" instant, "B" unclosed open
    ts: int  # start, in simulation cycles
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


class SpanTracer:
    """Bounded-memory structured tracer for one configured system."""

    def __init__(self, system: "EclipseSystem", capacity: int = 100_000):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not system.coprocessors:
            raise RuntimeError(
                "attach the SpanTracer after EclipseSystem.configure() — "
                "it wraps the running coprocessors, which do not exist yet"
            )
        if not system.obs.spans:
            raise RuntimeError(
                f"span tracing is disabled at obs_level={system.obs!s} — "
                "build the system with obs_level='series' or 'full' "
                "(SystemParams.obs_level, or --obs-level on the CLI)"
            )
        self.system = system
        self.capacity = capacity
        self.events: Deque[SpanEvent] = deque(maxlen=capacity)
        self.dropped = 0
        self.total = 0
        #: spans begun but not yet (or never) ended, newest last
        self.open_spans: List[SpanEvent] = []
        # deterministic thread ids: coprocessors first (sorted), then
        # the two data buses, with tid 0 reserved for system instants
        self.tids: Dict[str, int] = {"system": 0}
        for i, cname in enumerate(sorted(system.coprocessors), start=1):
            self.tids[cname] = i
        self.tids["read_bus"] = len(self.tids)
        self.tids["write_bus"] = len(self.tids)
        self._install()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _record(self, event: SpanEvent) -> None:
        self.total += 1
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(event)

    def _instant(self, name: str, cat: str, tid: int, **args) -> None:
        self._record(SpanEvent(name, cat, "i", self.system.sim.now, tid, args=args))

    def _begin(self, name: str, cat: str, tid: int, **args) -> SpanEvent:
        span = SpanEvent(name, cat, "B", self.system.sim.now, tid, args=args)
        self.open_spans.append(span)
        return span

    def _end(self, span: SpanEvent, **args) -> None:
        self.open_spans.remove(span)
        span.ph = "X"
        span.dur = self.system.sim.now - span.ts
        span.args.update(args)
        self._record(span)

    # ------------------------------------------------------------------
    # instrumentation (per-instance wrappers, OpLog-style)
    # ------------------------------------------------------------------
    def _install(self) -> None:
        system = self.system
        for cname, coproc in system.coprocessors.items():
            self._wrap_coprocessor(cname, coproc)
        for bus_name in ("read_bus", "write_bus"):
            self._wrap_bus(bus_name, getattr(system, bus_name))
        self._wrap_system(system)

    def _wrap_coprocessor(self, cname: str, coproc) -> None:
        tid = self.tids[cname]
        original_step = coproc._run_step

        def run_step(row, _orig=original_step):
            span = self._begin(f"step:{row.name}", "step", tid, task=row.name)
            outcome = yield from _orig(row)
            self._end(span, outcome=outcome.value)
            return outcome

        coproc._run_step = run_step  # type: ignore[method-assign]

        shell = coproc.shell
        for prim, label in (("get_space", "GetSpace"), ("put_space", "PutSpace")):
            original_prim = getattr(shell, prim)

            def wrapped(task, port, n, _orig=original_prim, _label=label):
                span = self._begin(_label, "shell", tid, port=port, bytes=n)
                result = yield from _orig(task, port, n)
                extra = {}
                if _label == "GetSpace":
                    extra["granted"] = bool(result)
                    if getattr(result, "eos", False):
                        extra["eos"] = True
                self._end(span, task=task.name, **extra)
                return result

            setattr(shell, prim, wrapped)

        original_fetch = shell._fetch_line

        def fetch_line(line_addr, prefetch, _orig=original_fetch):
            self._instant(
                "prefetch" if prefetch else "cache_miss",
                "cache",
                tid,
                line=line_addr,
                shell=cname,
            )
            yield from _orig(line_addr, prefetch)

        shell._fetch_line = fetch_line  # type: ignore[method-assign]

    def _wrap_bus(self, bus_name: str, bus) -> None:
        tid = self.tids[bus_name]
        original = bus.transfer

        def transfer(n_bytes, master="", priority=0, _orig=original):
            result = yield from _orig(n_bytes, master=master, priority=priority)
            # reconstruct the grant->release occupancy window: the bus
            # is exclusive, so these spans never overlap on their tid
            dur = bus.occupancy_cycles(n_bytes)
            now = self.system.sim.now
            self._record(
                SpanEvent(
                    f"xfer:{master or 'anon'}",
                    "bus",
                    "X",
                    now - dur,
                    tid,
                    dur=dur,
                    args={"bytes": n_bytes, "master": master, "priority": priority},
                )
            )
            return result

        bus.transfer = transfer  # type: ignore[method-assign]

    def _wrap_system(self, system) -> None:
        tid = self.tids["system"]
        original_export = system.export_state

        def export_state(_orig=original_export):
            state = _orig()
            self._instant("checkpoint", "resilience", tid, cycle=state["now"])
            return state

        system.export_state = export_state  # type: ignore[method-assign]

        original_stall = system.fault_coproc_stall

        def fault_coproc_stall(name, _orig=original_stall):
            stall = _orig(name)
            if stall:
                self._instant("fault:coproc_stall", "fault", tid,
                              coprocessor=name, cycles=stall)
            return stall

        system.fault_coproc_stall = fault_coproc_stall  # type: ignore[method-assign]

        original_corrupt = system.fault_corrupt_line

        def fault_corrupt_line(data, _orig=original_corrupt):
            corrupted = _orig(data)
            if corrupted is not None:
                self._instant("fault:corrupt_line", "fault", tid, bytes=len(data))
            return corrupted

        system.fault_corrupt_line = fault_corrupt_line  # type: ignore[method-assign]

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
                "args": {"name": "eclipse"},
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
            "otherData": {
                "obs_level": str(self.system.obs),
                "cycles": self.system.sim.now,
                "dropped": self.dropped,
                "total": self.total,
            },
        }

    def write(self, path: str) -> None:
        """Write the Chrome-trace JSON to ``path`` (canonical form:
        sorted keys, 1-space separators — byte-stable across runs)."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    def __len__(self) -> int:
        return len(self.events)
