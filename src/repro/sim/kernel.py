"""Simulation kernel: time, the event queue, and the run loop.

The kernel is deliberately small.  All model behaviour lives in
processes (see :mod:`repro.sim.process`); the kernel only calls the
queued callables in (time, priority, insertion) order and advances the
clock.  A queue entry is an event's ``_fire`` or a sleeping process's
resume.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, Generator, Optional

from repro.sim.events import PRIORITY_NORMAL, PRIORITY_URGENT, Event, SimulationError
from repro.sim.process import Process

__all__ = ["Simulator", "SimulationError", "PRIORITY_URGENT", "PRIORITY_NORMAL"]


class Simulator:
    """Discrete-event simulator with integer (cycle) time.

    The simulator is the rendezvous object of a model: every event and
    process is created against one ``Simulator`` and scheduled on its
    queue.  Time is an ``int`` so that cycle-level hardware models never
    accumulate floating-point error and schedules replay exactly.

    Example
    -------
    >>> sim = Simulator()
    >>> log = []
    >>> def proc(sim):
    ...     yield 5
    ...     log.append(sim.now)
    >>> _ = sim.process(proc(sim))
    >>> sim.run()
    >>> log
    [5]
    """

    def __init__(self) -> None:
        self._now: int = 0
        #: ``(time, priority, seq, fn)``; ``run()`` calls ``fn()``
        self._queue: list[tuple[int, int, int, Callable[[], None]]] = []
        #: entries ever pushed; the sequence number that breaks ties
        self._seq: int = 0
        self._running = False

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, event: Any, delay: int = 0, priority: int = PRIORITY_NORMAL) -> None:
        """Enqueue *event* to fire ``delay`` cycles from now.

        ``event`` must expose a ``_fire()`` method (all events in
        :mod:`repro.sim.events` do); the queue entry holds that bound
        method.  Ties at identical (time, priority) are broken by
        insertion order for determinism.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._call_in(int(delay), priority, event._fire)

    def _call_in(self, delay: int, priority: int, fn: Callable[[], None]) -> None:
        """Queue ``fn()`` to run ``delay`` (>= 0) cycles from now."""
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._seq, fn))

    # ------------------------------------------------------------------
    # factories (convenience mirrors of the events / process modules)
    # ------------------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Event:
        """An event that fires ``delay`` cycles from now with *value*.

        A process that only needs to sleep yields the cycle count
        itself instead (``yield delay``), which allocates no event.
        """
        return Event(self).succeed(value, delay=delay)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or ``None`` if queue empty."""
        return self._queue[0][0] if self._queue else None

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
        advance_time: bool = True,
    ) -> None:
        """Run until the queue drains, ``until`` cycles, or ``max_events``.

        ``until`` is an absolute simulation time; events scheduled at
        exactly ``until`` are *not* executed (time stops at ``until``).
        ``max_events`` bounds total fired events — a safety net for
        models suspected of livelock.
        ``stop`` is polled between events; returning True ends the run
        at the current time.  Monitor processes (watchdogs, deadlock
        detectors) keep the queue populated forever, so their users
        need a model-level completion predicate instead of queue drain.
        ``advance_time=False`` leaves the clock at the last fired event
        when the queue drains before ``until`` — so an incremental
        ``advance(n); advance(2*n); ...`` sequence ends at exactly the
        same final time as one uninterrupted run.

        The loop pops and calls queue entries in one frame, and the
        cyclic garbage collector is parked while it runs: the model
        allocates many short-lived events, reference counting reclaims
        them, and whole-heap scans mid-run only cost time.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        fired = 0
        queue = self._queue
        pop = heapq.heappop
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while queue:
                if stop is not None and stop():
                    return
                when = queue[0][0]
                if until is not None and when >= until:
                    self._now = until
                    return
                if max_events is not None and fired >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; possible livelock"
                    )
                item = pop(queue)
                self._now = item[0]
                item[3]()
                fired += 1
            if advance_time and until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pending_events(self) -> int:
        """Number of events currently queued (mainly for tests)."""
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self._now} pending={len(self._queue)}>"

