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

from repro.sim.events import PRIORITY_NORMAL, PRIORITY_URGENT, Event, SimulationError

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

    __slots__ = ("_generator", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Process needs a generator, got {type(generator).__name__}")
        super().__init__(sim)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # queue the first resume so the body runs inside the event
        # loop, not inside the constructor
        sim._call_in(0, PRIORITY_URGENT, self._wake)

    # -- introspection ----------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not returned or raised."""
        return not self._triggered

    # -- resumption ---------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Callback of the event the process waits on."""
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
        # a target that already fired resumes the process synchronously
        callbacks = target.callbacks
        if callbacks is None:
            self._resume(target)
        else:
            callbacks.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'dead'}>"
