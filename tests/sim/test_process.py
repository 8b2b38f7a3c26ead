"""Unit tests for processes: lifecycle, joins, errors."""

import pytest

from repro.sim import Simulator, SimulationError


def test_process_runs_to_completion():
    sim = Simulator()
    log = []

    def proc(sim):
        log.append(("start", sim.now))
        yield sim.timeout(3)
        log.append(("end", sim.now))

    sim.process(proc(sim))
    sim.run()
    assert log == [("start", 0), ("end", 3)]


def test_process_return_value_via_join():
    sim = Simulator()
    results = []

    def child(sim):
        yield sim.timeout(2)
        return 99

    def parent(sim):
        results.append((yield sim.process(child(sim))))

    sim.process(parent(sim))
    sim.run()
    assert results == [99]


def test_process_body_starts_inside_event_loop():
    sim = Simulator()
    started = []

    def proc(sim):
        started.append(True)
        yield sim.timeout(1)

    sim.process(proc(sim))
    assert started == []  # not yet: constructor must not run the body
    sim.run()
    assert started == [True]


def test_non_generator_rejected():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_yield_non_event_rejected():
    # an int is a cycle-count sleep; nothing else but an Event is legal
    def bad(sim, value):
        yield value

    for value in ("42", 4.2, True, None):
        sim = Simulator()
        sim.process(bad(sim, value))
        with pytest.raises(SimulationError, match="expected Event"):
            sim.run()


def test_negative_yield_delay_rejected():
    sim = Simulator()

    def bad(sim):
        yield -1

    sim.process(bad(sim))
    with pytest.raises(SimulationError, match="'bad'.*negative delay -1"):
        sim.run()


def test_exception_in_process_fails_join():
    sim = Simulator()
    caught = []

    def child(sim):
        yield sim.timeout(1)
        raise ValueError("inner")

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(parent(sim))
    sim.run()
    assert caught == ["inner"]


def test_unwaited_process_exception_surfaces():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)
        raise ValueError("unheard")

    sim.process(child(sim))
    with pytest.raises(ValueError, match="unheard"):
        sim.run()


def test_two_processes_interleave():
    sim = Simulator()
    log = []

    def ticker(sim, name, period):
        for _ in range(3):
            yield sim.timeout(period)
            log.append((name, sim.now))

    sim.process(ticker(sim, "a", 2))
    sim.process(ticker(sim, "b", 3))
    sim.run()
    # At t=6 both tick; b's timeout was scheduled earlier (at t=3 vs t=4)
    # so insertion order puts b first — deterministic tie-breaking.
    assert log == [("a", 2), ("b", 3), ("a", 4), ("b", 6), ("a", 6), ("b", 9)]
