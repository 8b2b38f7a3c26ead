"""Generator-driven processes.

A process wraps a Python generator.  The generator yields either an
:class:`~repro.sim.events.Event` or a cycle count:

* on an event, the process subscribes to it and resumes the generator
  with the event's value when it fires (or throws the event's exception
  into the generator);
* on an ``int`` ``n >= 0``, the process queues its own resume ``n``
  cycles from now, at normal priority, and the generator receives
  ``None``.  No event is made: a sleep costs one queue entry.

A ``Process`` is itself an :class:`Event` that fires when the generator
returns — so processes can wait on each other, join-style.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.sim.events import (
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Event,
    Interrupt,
    SimulationError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

__all__ = ["Process"]


class Process(Event):
    """Drive *generator* as a concurrent process of *sim*.

    The process starts at the current simulation time (its first resume
    is queued immediately, not run synchronously, so creation order
    and execution order are decoupled deterministically).

    Example
    -------
    >>> from repro.sim import Simulator
    >>> sim = Simulator()
    >>> def child(sim):
    ...     yield 3
    ...     return "done"
    >>> def parent(sim):
    ...     result = yield sim.process(child(sim))
    ...     assert result == "done"
    >>> _ = sim.process(parent(sim))
    >>> sim.run()
    >>> sim.now
    3
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Process needs a generator, got {type(generator).__name__}")
        super().__init__(sim)
        self._generator = generator
        #: the event the process waits on; None while it sleeps on a
        #: cycle count (or has not started yet)
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # queue the first resume so the body runs inside the event
        # loop, not inside the constructor
        sim._call_in(0, PRIORITY_URGENT, self._wake)

    # -- introspection ----------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not returned or raised."""
        return not self._triggered

    # -- control -----------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The interrupt is delivered urgently (before same-time normal
        events).  Interrupting a dead process is an error; interrupting
        a process blocked on an event detaches it from that event, and
        interrupting a sleeping process cancels its queued resume.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        ev = Event(self.sim)
        ev.callbacks.append(self._deliver_interrupt)
        ev.fail(Interrupt(cause), priority=PRIORITY_URGENT)
        ev.defused = True

    def _deliver_interrupt(self, ev: Event) -> None:
        if not self.is_alive:
            return  # finished before delivery
        target = self._waiting_on
        if target is None:
            self.sim._cancel(self._wake)  # asleep on a cycle count
        elif target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._waiting_on = None
        self._step(None, ev._exc)

    # -- resumption ---------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Callback of the event the process waits on."""
        self._waiting_on = None
        exc = event._exc
        if exc is not None:
            event.defused = True
        self._step(event._value, exc)

    def _wake(self) -> None:
        """Queue entry of a cycle-count sleep, and of the first resume."""
        self._step(None, None)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        try:
            if exc is None:
                target = self._generator.send(value)
            else:
                target = self._generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value, priority=PRIORITY_URGENT)
            return
        except Exception as gexc:
            # includes an Interrupt the process let escape
            self.fail(gexc, priority=PRIORITY_URGENT)
            return
        if type(target) is int:
            if target < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded negative delay {target}"
                )
            # the (time, priority, seq) key an event succeeded here with
            # this delay would take, so both ways of sleeping replay alike
            self.sim._call_in(target, PRIORITY_NORMAL, self._wake)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {type(target).__name__}, "
                "expected Event or int cycle count"
            )
        if target is self:
            raise SimulationError(f"process {self.name!r} waited on itself")
        self._waiting_on = target
        # subscribe exactly as Event.add_callback would, inlined: a
        # target that already fired resumes the process synchronously
        callbacks = target.callbacks
        if callbacks is None:
            self._resume(target)
        else:
            callbacks.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'dead'}>"
