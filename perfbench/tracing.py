"""Outside-in span tracing for the traced benchmark run.

The program is not instrumented.  Instead the benchmark wraps, per
instance, the public entry points of each layer of one configured
:class:`~repro.core.system.EclipseSystem` (and, on ``sweep``, a few
module-level entry points of the service path) and records one span
per call: name, start, end, parent span and run id.

Generator entry points (shell primitives, bus transfers, kernel steps)
are timed *per resume*: each ``send`` into the wrapped generator is its
own span, so the simulated waiting between two resumes never counts as
host time.  Spans nest on one thread's stack, so a layer's self time
is its spans' durations minus their direct children's
(:func:`perfbench.stats.self_times`), and the DES kernel's self time is
``Simulator.run`` minus the top-level model spans inside it.

Each thread records into its own :class:`SpanLog`; nothing is shared
on the hot path, so the sweep's worker thread and event-loop thread
never race on a list.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List

from perfbench.stats import self_times

__all__ = ["SpanLog", "Tracer", "instrument_system", "patched"]

_clock = time.perf_counter_ns

#: the five primitives of the shell's task-level interface
SHELL_PRIMITIVES = ("get_task", "get_space", "read", "write", "put_space")


class SpanLog:
    """Spans recorded by one thread, each ``[name, start_ns, end_ns,
    parent_index, run_id]``.  ``stack`` holds the open spans' indices
    above a -1 root sentinel; ``run`` tags new spans."""

    def __init__(self, tid: int, keep: int = 200_000):
        self.tid = tid
        self.spans: List[list] = []
        self.stack: List[int] = [-1]
        self.run = 0
        #: calls per span name (a generator's resumes are one call)
        self.calls: Dict[str, int] = {}
        #: folded spans: per-name totals, and the first ``keep`` for export
        self.self_ns: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}
        self.kept: List[list] = []
        self.keep = keep

    def fold(self) -> None:
        """Add the spans recorded so far to the per-name totals and drop
        them, so a long traced run holds only one request's spans.  Call
        it only when no span is open."""
        s, t, _ = self_times(self.spans)
        for name in s:
            self.self_ns[name] = self.self_ns.get(name, 0) + s[name]
            self.total_ns[name] = self.total_ns.get(name, 0) + t[name]
        base = len(self.kept)
        self.kept.extend([n, start, end, p + base if p >= 0 else -1, run]
                         for n, start, end, p, run in self.spans[: self.keep - base])
        del self.spans[:]  # in place: the wrappers hold this list

    def all_spans(self) -> List[list]:
        """Kept folded spans, then the live ones (parents re-based)."""
        base = len(self.kept)
        return self.kept + [[n, start, end, p + base if p >= 0 else -1, run]
                            for n, start, end, p, run in self.spans]


def call_span(log: SpanLog, name: str, fn: Callable) -> Callable:
    """``fn`` wrapped so every call records one span into ``log``."""
    spans = log.spans
    stack = log.stack
    calls = log.calls

    def traced(*args, _clock=_clock, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        idx = len(spans)
        spans.append([name, _clock(), 0, stack[-1], log.run])
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            spans[idx][2] = _clock()

    return traced


def _resumes(log: SpanLog, name: str, gen) -> Iterator:
    """Drive ``gen`` exactly as ``yield from`` would, recording one span
    per resume.  Values, thrown exceptions and close() are forwarded."""
    spans = log.spans
    stack = log.stack
    clock = _clock
    value = None
    exc = None
    while True:
        idx = len(spans)
        spans.append([name, clock(), 0, stack[-1], log.run])
        stack.append(idx)
        try:
            item = gen.send(value) if exc is None else gen.throw(exc)
        except StopIteration as stop:
            return stop.value
        finally:
            stack.pop()
            spans[idx][2] = clock()
        try:
            value = yield item
            exc = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as e:  # forwarded into gen on the next resume
            exc = e
            value = None


def gen_span(log: SpanLog, name: str, fn: Callable) -> Callable:
    """Generator function ``fn`` wrapped so each resume records a span."""
    calls = log.calls

    def traced(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return _resumes(log, name, fn(*args, **kwargs))

    return traced


class Tracer:
    """One :class:`SpanLog` per thread, created on first use."""

    def __init__(self) -> None:
        self._logs: Dict[int, SpanLog] = {}
        self._lock = threading.Lock()

    def log(self) -> SpanLog:
        """The calling thread's log."""
        ident = threading.get_ident()
        log = self._logs.get(ident)
        if log is None:
            with self._lock:
                log = self._logs.setdefault(ident, SpanLog(len(self._logs)))
        return log

    def call_span(self, name: str, fn: Callable) -> Callable:
        """Like :func:`call_span`, recording into whichever thread calls."""
        tracer = self

        def traced(*args, **kwargs):
            return call_span(tracer.log(), name, fn)(*args, **kwargs)

        return traced

    def layer_times(self):
        """``(self_ns, total_ns, calls)`` per span name over all threads;
        ``calls`` counts calls, so a generator's resumes count once."""
        self_t: Dict[str, int] = {}
        total: Dict[str, int] = {}
        calls: Dict[str, int] = {}
        for log in self._logs.values():
            s, t, _ = self_times(log.spans)
            for part, into in ((s, self_t), (t, total),
                               (log.self_ns, self_t), (log.total_ns, total),
                               (log.calls, calls)):
                for name, value in part.items():
                    into[name] = into.get(name, 0) + value
        return self_t, total, calls

    def durations_ns(self, name: str) -> List[int]:
        """The duration of every unfolded span called ``name``."""
        return [end - start for log in self._logs.values()
                for (n, start, end, _p, _r) in log.spans if n == name]

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event "X" events (microseconds since
        the first span), loadable in ui.perfetto.dev; of folded spans
        only the first ``SpanLog.keep`` per thread."""
        spans = {log.tid: log.all_spans() for log in self._logs.values()}
        starts = [s[0][1] for s in spans.values() if s]
        t0 = min(starts) if starts else 0
        events: List[dict] = [{"name": "process_name", "ph": "M", "pid": 1,
                               "args": {"name": "perfbench traced run"}}]
        for tid in sorted(spans):
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid, "args": {"name": f"thread-{tid}"}})
            for i, (name, start, end, parent, run) in enumerate(spans[tid]):
                events.append({
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (start - t0) / 1000.0,
                    "dur": (end - start) / 1000.0,
                    "pid": 1,
                    "tid": tid,
                    "args": {"id": i, "parent": parent, "run": run},
                })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)
            fh.write("\n")


def instrument_system(log: SpanLog, system) -> None:
    """Wrap, on this configured system's own objects, every layer entry
    point the traced run attributes time to."""
    for shell in system.shells.values():
        for prim in SHELL_PRIMITIVES:
            setattr(shell, prim, gen_span(log, f"core.shell.{prim}", getattr(shell, prim)))
        shell.deliver = call_span(log, "core.shell.deliver", shell.deliver)
        for row in shell.task_table:
            row.kernel.step = gen_span(log, "kernel.step", row.kernel.step)
    system.fabric.send = call_span(log, "core.fabric.send", system.fabric.send)
    for bus in (system.read_bus, system.write_bus, system.dram.bus):
        bus.transfer = gen_span(log, "hw.bus.transfer", bus.transfer)
    system.record_committed = call_span(log, "obs.record_committed", system.record_committed)
    system.sim.run = call_span(log, "sim.run", system.sim.run)


@contextmanager
def patched(obj, name: str, wrap: Callable[[Callable], Callable]):
    """Replace ``obj.name`` by ``wrap(obj.name)`` for the block."""
    original = getattr(obj, name)
    setattr(obj, name, wrap(original))
    try:
        yield
    finally:
        setattr(obj, name, original)
