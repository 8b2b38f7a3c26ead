"""Events: one-shot occurrences that processes can wait on.

An :class:`Event` has a three-state lifecycle:

``pending`` → ``triggered`` (scheduled on the queue) → ``fired``
(callbacks executed, value/exception delivered).

Processes (see :mod:`repro.sim.process`) yield events; the process is
resumed with the event's value when it fires, or the event's exception
is thrown into the generator.  A process that only sleeps yields a
cycle count instead and needs no event.

The event priorities and :class:`SimulationError` live here, at the
bottom of the import chain events -> process -> kernel, and are
re-exported by :mod:`repro.sim.kernel`.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

__all__ = [
    "Event",
    "SimulationError",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
]

#: Priority for events that must fire before same-time normal events
#: (a process's first resume and its completion).
PRIORITY_URGENT = 0
#: Default event priority.
PRIORITY_NORMAL = 1


class SimulationError(RuntimeError):
    """Raised for kernel misuse (time travel, re-triggering events...)."""


class Event:
    """A one-shot occurrence with a value or an exception.

    Callbacks are callables of one argument (the event itself),
    appended to ``callbacks`` before the event fires and invoked in that
    order when it does; ``callbacks`` is ``None`` once the event fired.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_triggered", "_fired", "defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._fired = False
        #: Set when a failure was handled (waited on); unhandled failed
        #: events raise at fire time so errors never pass silently.
        self.defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def fired(self) -> bool:
        """True once callbacks have run."""
        return self._fired

    @property
    def ok(self) -> bool:
        """True if the event fired successfully (no exception)."""
        return self._fired and self._exc is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, delay: int = 0, priority: int = PRIORITY_NORMAL) -> "Event":
        """Schedule this event to fire successfully with *value*."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        self.sim.schedule(self, delay, priority)
        return self

    def fail(self, exc: BaseException, delay: int = 0, priority: int = PRIORITY_NORMAL) -> "Event":
        """Schedule this event to fire with exception *exc*."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._triggered = True
        self._exc = exc
        self.sim.schedule(self, delay, priority)
        return self

    # -- firing -----------------------------------------------------------
    def _fire(self) -> None:
        if self._fired:
            raise SimulationError(f"{self!r} fired twice")
        self._fired = True
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for cb in callbacks:
                cb(self)
        if self._exc is not None and not self.defused:
            # Nobody waited on this failure: surface it instead of
            # silently dropping a model error.
            raise self._exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self._fired else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.sim.now}>"

