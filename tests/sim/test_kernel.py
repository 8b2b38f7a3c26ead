"""Unit tests for the DES kernel: time, queue ordering, run control."""

import pytest

from repro.sim import Simulator, SimulationError


def test_initial_time_is_zero():
    assert Simulator().now == 0


def test_timeout_advances_time():
    sim = Simulator()
    sim.timeout(7)
    sim.run()
    assert sim.now == 7


def test_run_until_stops_before_event():
    sim = Simulator()
    sim.timeout(10)
    sim.run(until=5)
    assert sim.now == 5
    assert sim.pending_events() == 1


def test_run_until_excludes_boundary_event():
    sim = Simulator()
    fired = []
    ev = sim.timeout(5)
    ev.callbacks.append(lambda e: fired.append(sim.now))
    sim.run(until=5)
    assert fired == []
    sim.run()
    assert fired == [5]


def test_run_until_advances_past_empty_queue():
    sim = Simulator()
    sim.run(until=100)
    assert sim.now == 100


def test_same_time_events_fire_in_insertion_order():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.timeout(3).callbacks.append(lambda e, i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    for delay in (5, 1, 3, 2, 4):
        sim.timeout(delay).callbacks.append(lambda e, d=delay: order.append(d))
    sim.run()
    assert order == [1, 2, 3, 4, 5]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(sim.event(), delay=-1)


def test_max_events_guard():
    sim = Simulator()

    def forever(sim):
        while True:
            yield sim.timeout(1)

    sim.process(forever(sim))
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=10)


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def nested(sim):
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)
        yield sim.timeout(1)

    sim.process(nested(sim))
    sim.run()
    assert len(errors) == 1


def test_peek_returns_next_event_time():
    sim = Simulator()
    assert sim.peek() is None
    sim.timeout(9)
    assert sim.peek() == 9
