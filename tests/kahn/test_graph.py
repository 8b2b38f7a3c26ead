"""Unit tests for application-graph construction and validation."""

import pytest

from repro.kahn import (
    ApplicationGraph,
    Direction,
    GraphError,
    PortRef,
    PortSpec,
    TaskNode,
)
from repro.kahn.library import ConsumerKernel, MapKernel, ProducerKernel


def make_node(name, kernel_cls, **kw):
    return TaskNode(name=name, kernel_factory=kernel_cls, ports=kernel_cls.PORTS, **kw)


def simple_graph():
    g = ApplicationGraph("simple")
    g.add_task(make_node("src", lambda: ProducerKernel(b"x" * 10)))
    g.tasks["src"].__dict__["ports"] = ProducerKernel.PORTS
    g.add_task(make_node("dst", ConsumerKernel))
    g.connect("src.out", "dst.in")
    return g


def test_simple_graph_validates():
    g = ApplicationGraph()
    g.add_task(TaskNode("src", ProducerKernel, ProducerKernel.PORTS))
    g.add_task(TaskNode("dst", ConsumerKernel, ConsumerKernel.PORTS))
    g.connect("src.out", "dst.in")
    g.validate()


def test_duplicate_task_rejected():
    g = ApplicationGraph()
    g.add_task(TaskNode("a", ProducerKernel, ProducerKernel.PORTS))
    with pytest.raises(GraphError, match="duplicate task"):
        g.add_task(TaskNode("a", ProducerKernel, ProducerKernel.PORTS))


def test_unconnected_port_rejected():
    g = ApplicationGraph()
    g.add_task(TaskNode("src", ProducerKernel, ProducerKernel.PORTS))
    with pytest.raises(GraphError, match="not connected"):
        g.validate()


def test_direction_mismatch_rejected():
    g = ApplicationGraph()
    g.add_task(TaskNode("a", ProducerKernel, ProducerKernel.PORTS))
    g.add_task(TaskNode("b", ConsumerKernel, ConsumerKernel.PORTS))
    g.connect("b.in", "a.out")  # backwards
    with pytest.raises(GraphError, match="is in, expected out"):
        g.validate()


def test_port_double_binding_rejected():
    g = ApplicationGraph()
    g.add_task(TaskNode("a", ProducerKernel, ProducerKernel.PORTS))
    g.add_task(TaskNode("b", ConsumerKernel, ConsumerKernel.PORTS))
    g.add_task(TaskNode("c", ConsumerKernel, ConsumerKernel.PORTS))
    g.connect("a.out", "b.in")
    g.connect("a.out", "c.in", name="second")
    with pytest.raises(GraphError, match="bound to both"):
        g.validate()


def test_multicast_stream_allowed():
    g = ApplicationGraph()
    g.add_task(TaskNode("a", ProducerKernel, ProducerKernel.PORTS))
    g.add_task(TaskNode("b", ConsumerKernel, ConsumerKernel.PORTS))
    g.add_task(TaskNode("c", ConsumerKernel, ConsumerKernel.PORTS))
    edge = g.connect("a.out", "b.in", "c.in")
    g.validate()
    assert edge.is_multicast


def test_stream_needs_consumer():
    g = ApplicationGraph()
    g.add_task(TaskNode("a", ProducerKernel, ProducerKernel.PORTS))
    with pytest.raises(GraphError, match="at least one consumer"):
        g.connect("a.out")


def test_bad_port_reference_syntax():
    g = ApplicationGraph()
    with pytest.raises(GraphError, match="expected 'task.port'"):
        g.connect("noport", "alsono")


def test_unknown_task_in_stream():
    g = ApplicationGraph()
    g.add_task(TaskNode("a", ProducerKernel, ProducerKernel.PORTS))
    g.connect("a.out", "ghost.in")
    with pytest.raises(GraphError, match="unknown task"):
        g.validate()


def test_unknown_port_name():
    node = TaskNode("a", ProducerKernel, ProducerKernel.PORTS)
    with pytest.raises(GraphError, match="no port"):
        node.port("nope")


def test_duplicate_port_names_rejected():
    with pytest.raises(GraphError, match="duplicate port"):
        TaskNode(
            "a",
            ProducerKernel,
            (PortSpec("x", Direction.OUT), PortSpec("x", Direction.IN)),
        )


def test_source_and_sink_queries():
    g = ApplicationGraph()
    g.add_task(TaskNode("src", ProducerKernel, ProducerKernel.PORTS))
    g.add_task(TaskNode("mid", MapKernel, MapKernel.PORTS))
    g.add_task(TaskNode("dst", ConsumerKernel, ConsumerKernel.PORTS))
    g.connect("src.out", "mid.in")
    g.connect("mid.out", "dst.in")
    assert g.source_tasks() == ["src"]
    assert g.sink_tasks() == ["dst"]
    assert [e.name for e in g.input_streams("mid")] == ["s_src_out"]
    assert [e.name for e in g.output_streams("mid")] == ["s_mid_out"]


def test_stream_of_lookup():
    g = ApplicationGraph()
    g.add_task(TaskNode("src", ProducerKernel, ProducerKernel.PORTS))
    g.add_task(TaskNode("dst", ConsumerKernel, ConsumerKernel.PORTS))
    edge = g.connect("src.out", "dst.in", name="wire")
    assert g.stream_of("src.out") is edge
    assert g.stream_of(PortRef("dst", "in")) is edge
    with pytest.raises(GraphError, match="not connected"):
        g.stream_of("dst.nonexistent")


def test_to_networkx_structure():
    g = ApplicationGraph("pipeline")
    g.add_task(TaskNode("src", ProducerKernel, ProducerKernel.PORTS))
    g.add_task(TaskNode("mid", MapKernel, MapKernel.PORTS))
    g.add_task(TaskNode("dst", ConsumerKernel, ConsumerKernel.PORTS))
    g.connect("src.out", "mid.in")
    g.connect("mid.out", "dst.in")
    nxg = g.to_networkx()
    assert set(nxg.nodes) == {"src", "mid", "dst"}
    assert nxg.number_of_edges() == 2
    assert g.is_acyclic()


def test_merge_prefixes_names():
    def small():
        g = ApplicationGraph()
        g.add_task(TaskNode("src", ProducerKernel, ProducerKernel.PORTS,
                            task_info=1, mapping="cpu", budget=500))
        g.add_task(TaskNode("dst", ConsumerKernel, ConsumerKernel.PORTS, mapping="dsp"))
        g.connect("src.out", "dst.in")
        return g

    merged = small().merge(small(), prefix="p2_")
    merged.validate()
    assert set(merged.tasks) == {"src", "dst", "p2_src", "p2_dst"}
    assert set(merged.streams) == {"s_src_out", "p2_s_src_out"}
    # the prefixed tasks keep their configuration
    for name, node in small().tasks.items():
        got = merged.tasks["p2_" + name]
        assert (got.mapping, got.budget, got.task_info) == (
            node.mapping, node.budget, node.task_info)


def test_bad_budget_rejected():
    with pytest.raises(GraphError, match="budget"):
        TaskNode("a", ProducerKernel, ProducerKernel.PORTS, budget=0)


def test_bad_granularity_rejected():
    with pytest.raises(GraphError, match="granularity"):
        PortSpec("p", Direction.IN, granularity=0)
