"""Queued resources: mutual exclusion and producer/consumer hand-off.

``Resource`` models an arbitrated shared unit (a bus, a memory port):
processes ``request()`` it, wait for the grant event, and ``release()``
when done.  Grant order is FIFO or priority-then-FIFO — both
deterministic, matching hardware arbiters.

``Store`` is an unbounded or bounded deposit box used for message
networks (putspace messages between shells travel through stores).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple, TYPE_CHECKING

from repro.sim.events import Event
from repro.sim.kernel import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

__all__ = ["Resource", "Store", "Request"]


class Request(Event):
    """Grant event for :class:`Resource`, carrying its request time."""

    __slots__ = ("request_time",)

    def __init__(self, sim: "Simulator"):
        super().__init__(sim)
        self.request_time = sim.now


class Resource:
    """A shared resource with ``capacity`` simultaneous holders.

    ``request(priority=...)`` returns an :class:`Event` that fires when
    the resource is granted.  Lower priority values are served first;
    equal priorities are FIFO.  ``release(grant)`` frees the slot.

    Example
    -------
    >>> from repro.sim import Simulator
    >>> sim = Simulator()
    >>> bus = Resource(sim, capacity=1)
    >>> def user(sim, bus):
    ...     grant = bus.request()
    ...     yield grant
    ...     yield 4  # occupy the bus for 4 cycles
    ...     bus.release(grant)
    >>> _ = sim.process(user(sim, bus))
    >>> sim.run()
    """

    def __init__(self, sim: "Simulator", capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._holders: set[Event] = set()
        self._waiting: List[Tuple[int, int, Event]] = []  # (priority, seq, event)
        self._seq = 0
        # instrumentation
        self.total_grants = 0
        self.total_wait_cycles = 0

    @property
    def in_use(self) -> int:
        return len(self._holders)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self, priority: int = 0) -> "Request":
        """Ask for the resource; returns the grant event."""
        grant = Request(self.sim)
        if len(self._holders) < self.capacity and not self._waiting:
            self._grant(grant)
        else:
            self._seq += 1
            # insertion keeping (priority, seq) order; linear scan is fine
            # for hardware-scale queues (a handful of masters).
            entry = (priority, self._seq, grant)
            idx = len(self._waiting)
            while idx > 0 and self._waiting[idx - 1][:2] > entry[:2]:
                idx -= 1
            self._waiting.insert(idx, entry)
        return grant

    def _grant(self, grant: "Request") -> None:
        self._holders.add(grant)
        self.total_grants += 1
        self.total_wait_cycles += self.sim.now - grant.request_time
        grant.succeed(self)

    def release(self, grant: Event) -> None:
        """Release a previously granted slot."""
        if grant not in self._holders:
            raise SimulationError("release() of a grant that is not held")
        self._holders.remove(grant)
        if self._waiting and len(self._holders) < self.capacity:
            _prio, _seq, nxt = self._waiting.pop(0)
            self._grant(nxt)

    def cancel(self, grant: Event) -> None:
        """Withdraw a pending (not yet granted) request."""
        for i, (_p, _s, ev) in enumerate(self._waiting):
            if ev is grant:
                del self._waiting[i]
                return
        raise SimulationError("cancel() of a request that is not pending")


class Store:
    """FIFO deposit box with optional capacity bound.

    ``put(item)`` returns an event firing when the item is accepted
    (immediately if below capacity); ``get()`` returns an event firing
    with the oldest item once one is available.
    """

    def __init__(self, sim: "Simulator", capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Tuple[Event, Any]] = deque()
        self.total_puts = 0
        self.total_gets = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (oldest first) — for inspection only."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        ev = Event(self.sim)
        if self._getters:
            # hand straight to the oldest waiting getter
            getter = self._getters.popleft()
            getter.succeed(item)
            ev.succeed(None)
            self.total_puts += 1
            self.total_gets += 1
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed(None)
            self.total_puts += 1
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
            self.total_gets += 1
            if self._putters:
                put_ev, item = self._putters.popleft()
                self._items.append(item)
                put_ev.succeed(None)
                self.total_puts += 1
        else:
            self._getters.append(ev)
        return ev
