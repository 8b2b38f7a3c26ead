"""Unit tests for events: lifecycle, values, failures."""

import pytest

from repro.sim import Event, Simulator, SimulationError


def test_event_starts_pending():
    sim = Simulator()
    ev = Event(sim)
    assert not ev.triggered and not ev.fired


def test_succeed_delivers_value():
    sim = Simulator()
    ev = Event(sim)
    seen = []
    ev.callbacks.append(lambda e: seen.append(e.value))
    ev.succeed(42)
    sim.run()
    assert seen == [42]
    assert ev.ok


def test_double_trigger_rejected():
    sim = Simulator()
    ev = Event(sim).succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError())


def test_value_before_trigger_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Event(sim).value


def test_fail_with_non_exception_rejected():
    sim = Simulator()
    with pytest.raises(TypeError):
        Event(sim).fail("not an exception")  # type: ignore[arg-type]


def test_unhandled_failure_raises_at_fire_time():
    sim = Simulator()
    Event(sim).fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_defused_failure_does_not_raise():
    sim = Simulator()
    ev = Event(sim)
    ev.fail(ValueError("boom"))
    ev.defused = True
    sim.run()  # no raise


def test_timeout_value_passthrough():
    sim = Simulator()
    ev = sim.timeout(2, value="payload")
    sim.run()
    assert ev.value == "payload"

