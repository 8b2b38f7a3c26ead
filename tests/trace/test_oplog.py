"""Tests for the operation log."""

import pytest

from repro.core import CoprocessorSpec, EclipseSystem, SystemParams
from repro.kahn import ApplicationGraph, TaskNode
from repro.kahn.library import ConsumerKernel, ProducerKernel
from repro.trace.oplog import OpLog, render_oplog


def make_system(payload=b"x" * 512):
    g = ApplicationGraph("log")
    g.add_task(TaskNode("src", lambda: ProducerKernel(payload, chunk=32), ProducerKernel.PORTS))
    g.add_task(TaskNode("dst", lambda: ConsumerKernel(chunk=32), ConsumerKernel.PORTS))
    g.connect("src.out", "dst.in", buffer_size=64)
    system = EclipseSystem([CoprocessorSpec("p"), CoprocessorSpec("c")], SystemParams())
    system.configure(g)
    return system


def test_oplog_records_ops():
    system = make_system()
    log = OpLog(system)
    result = system.run()
    assert result.completed
    assert result.histories["s_src_out"] == b"x" * 512  # observation is pure
    kinds = {r.kind for r in log.records}
    assert {"step", "get_space", "put_space", "PutSpaceMsg"} <= kinds
    # steps bracketed begin/end with outcomes
    ends = [r for r in log.filter(kind="step") if r.detail.startswith("end")]
    assert any("end:completed" in r.detail for r in ends)
    assert any("end:finished" in r.detail for r in ends)


def test_oplog_denials_visible():
    system = make_system(payload=b"y" * 2048)
    log = OpLog(system)
    system.run()
    denies = [r for r in log.filter(kind="get_space") if "DENY" in r.detail]
    assert denies  # the 64 B buffer forced backpressure


def test_oplog_ring_buffer_bounds_memory():
    system = make_system(payload=b"z" * 4096)
    log = OpLog(system, capacity=50)
    system.run()
    assert len(log) == 50
    assert log.dropped > 0
    assert log.total > 50


def test_oplog_predicate_filters():
    system = make_system()
    log = OpLog(system, predicate=lambda r: r.task == "dst")
    system.run()
    assert log.records
    assert all(r.task == "dst" for r in log.records)


def test_oplog_render():
    system = make_system()
    log = OpLog(system)
    system.run()
    out = render_oplog(log, last=10)
    lines = out.splitlines()
    assert "op log:" in lines[0]
    assert len(lines) == 11
    assert "get_space" in out or "put_space" in out or "step" in out


def test_oplog_render_last_zero_prints_the_header_only():
    system = make_system()
    log = OpLog(system)
    system.run()
    out = render_oplog(log, last=0)
    assert out == (f"op log: showing 0 of {log.total} records "
                   f"(0 dropped by the ring buffer)")


def test_oplog_requires_configured_system():
    system = EclipseSystem([CoprocessorSpec("p")])
    with pytest.raises(RuntimeError, match="configure"):
        OpLog(system)


def test_oplog_timestamps_monotone():
    system = make_system()
    log = OpLog(system)
    system.run()
    times = [r.time for r in log.records]
    assert times == sorted(times)
