"""The span tracer: recording, export, identity, bounded memory."""

import json

import pytest

from repro.obs import SpanTracer
from repro.verify import lint_chrome_trace
from repro.workloads import conformance_run, decode_run, quickstart_run


def _traced_run(obs_level="full", capacity=100_000, payload_len=1024):
    system, graph = quickstart_run(payload_len=payload_len, obs_level=obs_level)
    system.configure(graph)
    tracer = system.attach_tracer(capacity=capacity)
    result = system.run()
    return system, tracer, result


def test_tracer_requires_configured_system():
    system, _graph = quickstart_run()
    with pytest.raises(RuntimeError, match="configure"):
        SpanTracer(system)


def test_tracer_requires_series_level():
    system, graph = quickstart_run(obs_level="counters")
    system.configure(graph)
    with pytest.raises(RuntimeError, match="obs_level"):
        system.attach_tracer()


def test_tracer_rejects_bad_capacity():
    system, graph = quickstart_run()
    system.configure(graph)
    with pytest.raises(ValueError):
        SpanTracer(system, capacity=0)


def test_records_steps_shell_and_bus_spans():
    _system, tracer, _result = _traced_run()
    s = tracer.summary()
    assert s["open_spans"] == 0  # the run finished; every span closed
    assert s["dropped"] == 0
    for cat in ("step", "shell", "bus", "cache"):
        assert s["by_category"].get(cat, 0) > 0, cat
    names = {ev.name for ev in tracer.events}
    assert "step:src" in names and "step:dst" in names
    assert "GetSpace" in names and "PutSpace" in names


def test_tracing_does_not_move_the_schedule():
    system, graph = quickstart_run(payload_len=1024)
    system.configure(graph)
    baseline = system.run()
    _sys2, _tracer, traced = _traced_run()
    assert traced.cycles == baseline.cycles
    assert traced.histories == baseline.histories


def test_tracing_demand_misses_does_not_move_the_schedule():
    """Prefetch serves every quickstart read; the default decode also
    misses on demand, so its reads use the line the wrapped fetch
    returns."""
    system, graph = decode_run()
    system.configure(graph)
    baseline = system.run()
    system, graph = decode_run()
    system.configure(graph)
    tracer = system.attach_tracer()
    traced = system.run()
    assert traced.cycles == baseline.cycles
    assert traced.histories == baseline.histories
    assert any(ev.name == "cache_miss" for ev in tracer.events)


def test_ring_buffer_bounds_memory():
    _system, tracer, _result = _traced_run(capacity=16)
    assert len(tracer) == 16
    assert tracer.dropped > 0
    assert tracer.total == len(tracer) + tracer.dropped


def test_export_passes_the_trace_lint():
    _system, tracer, _result = _traced_run()
    trace = tracer.to_chrome_trace()
    report = lint_chrome_trace(trace)
    assert not report.has_errors
    assert len(report) == 0  # no warnings either: every span closed


def test_export_is_loadable_json(tmp_path):
    _system, tracer, result = _traced_run()
    out = tmp_path / "trace.json"
    tracer.write(str(out))
    trace = json.loads(out.read_text())
    assert isinstance(trace["traceEvents"], list)
    assert trace["otherData"]["cycles"] == result.cycles
    tids = {e["args"]["name"] for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"}
    assert {"system", "cp0", "cp1", "read_bus", "write_bus"} <= tids


def test_open_span_exported_as_B_and_flagged():
    system, graph = quickstart_run()
    system.configure(graph)
    tracer = system.attach_tracer()
    tracer.begin("step:stuck", "step", "cp0", task="stuck")
    trace = tracer.to_chrome_trace()
    assert any(e["ph"] == "B" for e in trace["traceEvents"])
    report = lint_chrome_trace(trace)
    assert report.rule_ids() == {"O301"}
    assert not report.has_errors  # truncation is a warning, not an error


def test_checkpoint_shows_as_instant_event():
    system, graph = quickstart_run()
    system.configure(graph)
    tracer = system.attach_tracer()
    system.export_state()
    assert any(ev.name == "checkpoint" and ev.cat == "resilience"
               for ev in tracer.events)


def test_fault_instants_recorded():
    system, graph = conformance_run(graph="pipeline", payload_len=512,
                                    fault_spec="stall=0.5,seed=3")
    system.configure(graph)
    tracer = system.attach_tracer()
    result = system.run()
    stalls = result.robustness.get("injected", {}).get("stalls_injected", 0)
    instants = [ev for ev in tracer.events if ev.cat == "fault"]
    assert len(instants) == stalls
    assert stalls > 0  # p=0.5 over hundreds of steps
