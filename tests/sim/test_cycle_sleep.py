"""A process sleeps by yielding a cycle count.

``yield n`` must schedule exactly what ``yield sim.timeout(n)`` did —
the same wake time, priority and sequence number — so every model that
switched from one to the other replays the same schedule."""

from hypothesis import example, given, settings, strategies as st

from repro.sim import Interrupt, Simulator

#: shared events the processes of one program wait on and succeed
N_EVENTS = 3

_leaf = st.one_of(
    st.tuples(st.just("sleep"), st.integers(0, 5)),
    st.tuples(st.just("wait"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("succeed"), st.integers(0, N_EVENTS - 1), st.integers(0, 5)),
)
_step = st.one_of(_leaf, st.tuples(st.just("spawn"), st.lists(_leaf, max_size=4)))
_programs = st.lists(st.lists(_step, max_size=8), min_size=1, max_size=6)


def _simulate(program, sleep_on_int):
    """Run ``program`` (one step list per process); returns the
    ``(time, process, step)`` log, the final time and the queue's
    sequence counter."""
    sim = Simulator()
    events = [sim.event() for _ in range(N_EVENTS)]
    log = []

    def body(name, steps):
        for i, step in enumerate(steps):
            kind = step[0]
            if kind == "sleep":
                yield step[1] if sleep_on_int else sim.timeout(step[1])
            elif kind == "wait":
                yield events[step[1]]
            elif kind == "succeed":
                if not events[step[1]].triggered:
                    events[step[1]].succeed(delay=step[2])
            else:  # spawn a child and join it
                yield sim.process(body(f"{name}.{i}", step[1]))
            log.append((sim.now, name, i))

    for p, steps in enumerate(program):
        sim.process(body(str(p), steps))
    sim.run()
    return log, sim.now, sim._seq


@settings(max_examples=300, deadline=None)
@given(_programs)
def test_int_sleep_replays_the_timeout_schedule(program):
    assert _simulate(program, sleep_on_int=True) == _simulate(program, sleep_on_int=False)


def test_interrupted_sleep_cancels_its_resume():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield 100
        except Interrupt:
            log.append(f"interrupt@{sim.now}")
        yield 50
        log.append(f"woke@{sim.now}")
        yield 200
        log.append(f"woke@{sim.now}")

    def interrupter(sim, victim):
        yield 10
        victim.interrupt()

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert log == ["interrupt@10", "woke@60", "woke@260"]
    assert sim.now == 260 and sim.pending_events() == 0


def _interrupt_one(delays, victim, at, sleep_on_int):
    """Sleepers of ``delays`` cycles; one is interrupted at ``at``.
    Returns the ``(time, sleeper, outcome)`` log."""
    sim = Simulator()
    log = []

    def sleeper(sim, i, delay):
        try:
            yield delay if sleep_on_int else sim.timeout(delay)
        except Interrupt:
            log.append((sim.now, i, "interrupted"))
            return
        log.append((sim.now, i, "woke"))

    sleepers = [sim.process(sleeper(sim, i, d)) for i, d in enumerate(delays)]

    def interrupter(sim):
        yield sim.timeout(at)
        sleepers[victim].interrupt()

    sim.process(interrupter(sim))
    sim.run()
    return log


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=2, max_size=16),
       st.integers(0, 15), st.integers(0, 29))
# a removal from mid-heap that breaks the heap unless it is re-heapified
@example(delays=[6, 12, 14, 20, 23, 18, 21, 17, 2, 29, 12], victim=8, at=1)
def test_interrupting_one_sleeper_keeps_the_others_in_order(delays, victim, at):
    # the cancelled resume leaves the queue; every other entry must
    # still come out in (time, priority, insertion) order
    victim %= len(delays)
    at %= delays[victim]
    assert _interrupt_one(delays, victim, at, True) == _interrupt_one(delays, victim, at, False)
