"""Direct unit tests for the §5.4 measurement sampler.

The :class:`~repro.trace.sampler.Sampler` is a *scheduled observer*: it
keeps a timeout in the event queue while any coprocessor is alive,
which (a) gives it an exact cadence and (b) makes it stop by itself
when the run ends.
"""

from __future__ import annotations

import pytest

from repro.trace.sampler import Sampler
from repro.workloads import quickstart_run


def _sampled_quickstart(interval=200, payload_len=2048):
    system, graph = quickstart_run(payload_len=payload_len)
    system.configure(graph)
    sampler = Sampler(system, interval=interval)
    result = system.run()
    return sampler, result


# ---------------------------------------------------------------------------
# construction contract
# ---------------------------------------------------------------------------
def test_sampler_rejects_bad_interval():
    system, graph = quickstart_run(payload_len=512)
    system.configure(graph)
    with pytest.raises(ValueError, match="interval"):
        Sampler(system, interval=0)


def test_sampler_requires_configured_system():
    system, _ = quickstart_run(payload_len=512)
    with pytest.raises(RuntimeError, match="configure"):
        Sampler(system)


# ---------------------------------------------------------------------------
# cadence, contents, self-termination
# ---------------------------------------------------------------------------
def test_sampler_cadence_is_exact():
    sampler, result = _sampled_quickstart(interval=200)
    times = sampler.utilization["cp0"].times
    assert times == list(range(0, times[-1] + 1, 200))
    assert len(times) >= 2


def test_sampler_series_cover_streams_tasks_and_coprocessors():
    sampler, result = _sampled_quickstart()
    # the quickstart graph is src -> dst over one stream; only the
    # consumer side has a fill series
    assert set(sampler.stream_fill) == {("src.out->dst.in", "dst")} or all(
        task == "dst" for (_, task) in sampler.stream_fill
    )
    assert set(sampler.task_steps) == set(result.tasks)
    assert set(sampler.utilization) == set(result.utilization)
    # cumulative step series end at the final completed-step counts
    for name, series in sampler.task_steps.items():
        assert series.values[-1] == result.tasks[name].steps_completed
    # windowed utilization is a fraction of the interval
    for series in sampler.utilization.values():
        assert all(0.0 <= v <= 1.0 for v in series.values)
    # running-task ids are either -1 (idle) or a real task id
    for series in sampler.running_task.values():
        assert all(v == -1 or v >= 0 for v in series.values)


def test_sampler_stops_itself_after_completion():
    """The sampler's generator returns once every coprocessor has shut
    down — it never keeps the simulation alive past one interval."""
    sampler, result = _sampled_quickstart(interval=200)
    last = sampler.utilization["cp0"].times[-1]
    assert last <= result.cycles
    assert result.completed


def test_frame_boundaries_segment_progress():
    sampler, result = _sampled_quickstart(interval=100)
    steps_total = result.tasks["dst"].steps_completed
    per_frame = max(1, steps_total // 4)
    bounds = sampler.frame_boundaries("dst", per_frame)
    assert bounds, "expected at least one frame boundary"
    times = [bounds[k] for k in sorted(bounds)]
    assert times == sorted(times)
    assert sorted(bounds) == list(range(1, len(bounds) + 1))
    # a frame is only declared once that many steps actually completed
    for frame, t in bounds.items():
        series = dict(zip(sampler.task_steps["dst"].times,
                          sampler.task_steps["dst"].values))
        assert series[t] >= frame * per_frame
