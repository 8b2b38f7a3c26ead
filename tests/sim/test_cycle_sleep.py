"""A process sleeps by yielding a cycle count.

``yield n`` must schedule exactly what ``yield sim.timeout(n)`` did —
the same wake time, priority and sequence number — so every model that
switched from one to the other replays the same schedule."""

from hypothesis import given, settings, strategies as st

from repro.sim import Simulator

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

