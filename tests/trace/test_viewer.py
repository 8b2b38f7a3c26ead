"""Golden-output tests for the ASCII viewer and counter snapshots.

``tests/trace/test_trace.py`` checks the views against a live decode
run; here the inputs are small and hand-constructed so the expected
output is written down *literally* — any formatting drift is a diff,
not a vibe.
"""

from repro.sim import Series
from repro.trace import collect_counters
from repro.trace.viewer import (
    render_application_view,
    render_architecture_view,
    render_task_gantt,
    series_to_csv,
    sparkline,
)
from repro.workloads import quickstart_run


# ---------------------------------------------------------------------------
# literal golden outputs on constructed inputs
# ---------------------------------------------------------------------------
def test_sparkline_golden():
    assert sparkline([0, 1, 2, 3, 4, 5, 6, 7, 8, 9], vmax=9) == " .:-=+*#%@"
    assert sparkline([5, 5, 5, 5], vmax=10) == "===="
    assert sparkline([]) == ""
    # values above vmax clamp to the top glyph instead of wrapping
    assert sparkline([20], vmax=10) == "@"


def test_series_to_csv_golden():
    a = Series("a")
    a.record(0, 1.0)
    a.record(10, 2.5)
    b = Series("b")
    b.record(5, 0.0)
    out = series_to_csv({"a": a, ("s", "task"): b})
    assert out == "name,time,value\na,0,1.0\na,10,2.5\ns->task,5,0.0"


# ---------------------------------------------------------------------------
# live-run goldens (quickstart: small, deterministic)
# ---------------------------------------------------------------------------
def _run(obs_level="full", interval=200):
    system, graph = quickstart_run(payload_len=1024, obs_level=obs_level,
                                   sample_interval=interval)
    system.configure(graph)
    result = system.run()
    return system, system.sampler, result


def test_architecture_view_golden_shape():
    _system, _sampler, result = _run()
    lines = render_architecture_view(result).splitlines()
    assert lines[0] == "=== architecture view ==="
    assert lines[1].lstrip().startswith("cp0")
    assert "read bus" in lines[3] and "write bus" in lines[4]
    assert lines[-1] == f"messages sent: {result.messages_sent}"
    # every utilization line carries the [###...] xx.x% bar
    assert all("%" in line for line in lines[1:5])


def test_application_view_golden_shape():
    _system, _sampler, result = _run()
    view = render_application_view(result)
    lines = view.splitlines()
    assert lines[0] == "=== application view ==="
    task_rows = [l for l in lines if l.lstrip().startswith(("src", "dst"))]
    assert len(task_rows) == 2
    assert any(l.lstrip().startswith("s_src_out") for l in lines)


def test_task_gantt_renders_rows_and_legend():
    system, sampler, _result = _run()
    out = render_task_gantt(sampler, system)
    lines = out.splitlines()
    assert lines[0].lstrip().startswith("cp0")
    assert lines[1].lstrip().startswith("cp1")
    # every mark is a task id digit or idle
    for row in lines[:2]:
        assert set(row.split(None, 1)[1]) <= set("0123456789.")
    assert "cp0: 0=src" in out and "cp1: 0=dst" in out


def test_collect_counters_fill_stats_follow_the_level():
    _system_full, _s, _r = _run()
    full = collect_counters(_system_full)
    fills = [s["fill_mean"] for sh in full["shells"].values()
             for s in sh["streams"].values() if not s["is_producer"]]
    assert fills and all(f is not None for f in fills)

    system_off, graph = quickstart_run(payload_len=1024, obs_level="off")
    system_off.configure(graph)
    system_off.run()
    off = collect_counters(system_off)
    fills_off = [s["fill_mean"] for sh in off["shells"].values()
                 for s in sh["streams"].values() if not s["is_producer"]]
    assert fills_off and all(f is None for f in fills_off)
    # structural counters survive at every level
    assert off["shells"]["cp0"]["ops"]["getspace"] > 0
