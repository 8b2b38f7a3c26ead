"""Unit tests for statistics probes."""

from repro.sim import Series, Simulator, TimeWeightedStat, UtilizationProbe


def run_to(sim, t):
    sim.run(until=t)


def test_time_weighted_mean_constant():
    sim = Simulator()
    s = TimeWeightedStat(sim, initial=4.0)
    run_to(sim, 10)
    assert s.mean() == 4.0


def test_time_weighted_mean_step():
    sim = Simulator()
    s = TimeWeightedStat(sim, initial=0.0)
    run_to(sim, 5)
    s.update(10.0)
    run_to(sim, 10)
    # 5 cycles at 0 plus 5 cycles at 10 -> mean 5
    assert s.mean() == 5.0


def test_time_weighted_min_max():
    sim = Simulator()
    s = TimeWeightedStat(sim, initial=2.0)
    s.update(7.0)
    s.update(-1.0)
    assert s.minimum == -1.0
    assert s.maximum == 7.0


def test_time_weighted_add_delta():
    sim = Simulator()
    s = TimeWeightedStat(sim, initial=1.0)
    s.add(4.0)
    assert s.value == 5.0
    s.add(-2.0)
    assert s.value == 3.0


def test_mean_at_zero_elapsed_is_current_value():
    sim = Simulator()
    s = TimeWeightedStat(sim, initial=3.0)
    assert s.mean() == 3.0


def test_utilization_idle():
    sim = Simulator()
    u = UtilizationProbe(sim)
    run_to(sim, 100)
    assert u.utilization() == 0.0


def test_utilization_half_busy():
    sim = Simulator()
    u = UtilizationProbe(sim)
    u.set_busy()
    run_to(sim, 50)
    u.set_idle()
    run_to(sim, 100)
    assert u.utilization() == 0.5


def test_utilization_counts_open_interval():
    sim = Simulator()
    u = UtilizationProbe(sim)
    u.set_busy()
    run_to(sim, 40)
    assert u.busy_cycles() == 40
    assert u.utilization() == 1.0


def test_utilization_idempotent_transitions():
    sim = Simulator()
    u = UtilizationProbe(sim)
    u.set_busy()
    u.set_busy()
    run_to(sim, 10)
    u.set_idle()
    u.set_idle()
    assert u.busy_cycles() == 10


def test_series_basic():
    s = Series("buf")
    s.record(0, 1.0)
    s.record(10, 3.0)
    s.record(20, 2.0)
    assert len(s) == 3
    assert s.max() == 3.0
    assert s.min() == 1.0
    assert s.mean() == 2.0
    assert list(s) == [(0, 1.0), (10, 3.0), (20, 2.0)]


def test_series_window():
    s = Series("buf")
    for t in range(0, 50, 10):
        s.record(t, float(t))
    w = s.window(10, 40)
    assert list(w) == [(10, 10.0), (20, 20.0), (30, 30.0)]


def test_series_empty_stats():
    s = Series()
    assert s.max() == 0.0 and s.min() == 0.0 and s.mean() == 0.0


# ---------------------------------------------------------------------------
# integration is step-invariant
# ---------------------------------------------------------------------------
def test_probes_integrate_across_compressed_idle_window():
    """Time-weighted stats depend only on (value, elapsed) pairs, so a
    single leap timeout over an idle window must integrate to exactly
    the same area as poll-by-poll stepping."""
    polled = Simulator()
    s_polled = TimeWeightedStat(polled, initial=3.0)
    u_polled = UtilizationProbe(polled)

    def stepper():
        u_polled.set_busy()
        for _ in range(10):  # ten 1000-cycle polls
            yield polled.timeout(1000)
        s_polled.update(5.0)

    polled.process(stepper())
    polled.run()

    leapt = Simulator()
    s_leapt = TimeWeightedStat(leapt, initial=3.0)
    u_leapt = UtilizationProbe(leapt)

    def leaper():
        u_leapt.set_busy()
        yield leapt.timeout(10_000)  # one leap over the whole window
        s_leapt.update(5.0)

    leapt.process(leaper())
    leapt.run()

    assert leapt.now == polled.now == 10_000
    assert s_leapt.mean() == s_polled.mean() == 3.0
    assert (s_leapt.minimum, s_leapt.maximum) == (s_polled.minimum, s_polled.maximum)
    assert u_leapt.busy_cycles() == u_polled.busy_cycles() == 10_000
    assert u_leapt.utilization() == u_polled.utilization() == 1.0
