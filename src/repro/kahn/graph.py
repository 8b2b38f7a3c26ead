"""Application graphs: tasks, ports, and streams (paper Figures 2-3).

An :class:`ApplicationGraph` is the Kahn network the user configures at
run time: task nodes with named, directed ports; stream edges with
exactly one producer port and one or more consumer ports.  The graph is
pure structure plus mapping hints (buffer size, which coprocessor runs
which task) — execution semantics live in the executors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "Direction",
    "PortSpec",
    "PortRef",
    "TaskNode",
    "StreamEdge",
    "ApplicationGraph",
    "GraphError",
]


class GraphError(ValueError):
    """Raised for structurally invalid application graphs."""


class Direction(enum.Enum):
    """Port direction, from the task's point of view."""

    IN = "in"
    OUT = "out"


@dataclass(frozen=True)
class PortSpec:
    """Declared port of a task kernel.

    ``granularity`` is the port's natural synchronization grain in
    bytes (e.g. one macroblock packet); the default buffer sizing
    heuristics use it.
    """

    name: str
    direction: Direction
    granularity: int = 1

    def __post_init__(self) -> None:
        if self.granularity < 1:
            raise GraphError(f"port {self.name!r}: granularity must be >= 1")


@dataclass(frozen=True)
class PortRef:
    """A (task, port) endpoint of a stream."""

    task: str
    port: str

    def __str__(self) -> str:
        return f"{self.task}.{self.port}"


@dataclass
class TaskNode:
    """A Kahn task: a kernel factory plus port declarations.

    ``kernel_factory`` is a zero-argument callable returning a fresh
    :class:`repro.kahn.kernel.Kernel`; each executor instantiates its
    own kernel so task state is never shared between runs.
    ``task_info`` is the parameter word passed through GetTask (paper
    Section 3.2), e.g. forward-vs-inverse selection for a DCT task.
    ``mapping`` optionally names the coprocessor this task runs on.
    ``budget`` is the scheduler budget in cycles (paper Section 5.3).
    """

    name: str
    kernel_factory: Callable[[], Any]
    ports: Tuple[PortSpec, ...] = ()
    task_info: int = 0
    mapping: Optional[str] = None
    budget: int = 2000

    def __post_init__(self) -> None:
        seen = set()
        for p in self.ports:
            if p.name in seen:
                raise GraphError(f"task {self.name!r}: duplicate port {p.name!r}")
            seen.add(p.name)
        if self.budget < 1:
            raise GraphError(f"task {self.name!r}: budget must be >= 1")

    def port(self, name: str) -> PortSpec:
        for p in self.ports:
            if p.name == name:
                return p
        raise GraphError(f"task {self.name!r} has no port {name!r}")

    def input_ports(self) -> List[PortSpec]:
        return [p for p in self.ports if p.direction is Direction.IN]

    def output_ports(self) -> List[PortSpec]:
        return [p for p in self.ports if p.direction is Direction.OUT]


@dataclass
class StreamEdge:
    """A stream: one producer port, one or more consumer ports.

    ``buffer_size`` is the FIFO capacity in bytes when the graph is
    mapped onto an Eclipse instance (ignored by the unbounded reference
    executor).  ``name`` identifies the stream in traces and tables.
    """

    name: str
    producer: PortRef
    consumers: Tuple[PortRef, ...]
    buffer_size: int = 4096

    def __post_init__(self) -> None:
        if not self.consumers:
            raise GraphError(f"stream {self.name!r}: needs at least one consumer")
        if self.buffer_size < 1:
            raise GraphError(f"stream {self.name!r}: buffer_size must be >= 1")

    @property
    def is_multicast(self) -> bool:
        return len(self.consumers) > 1


class ApplicationGraph:
    """A validated Kahn application graph.

    Build with :meth:`add_task` and :meth:`connect`, then
    :meth:`validate` (also called by executors).  The structural rules
    (paper Section 3): every stream has exactly one producing output
    port; every port is bound to exactly one stream; directions match.
    """

    def __init__(self, name: str = "app"):
        self.name = name
        self.tasks: Dict[str, TaskNode] = {}
        self.streams: Dict[str, StreamEdge] = {}
        #: declared number of weakly-connected components; the graph
        #: linter (G009) flags any graph with more islands than this,
        #: so deliberate ∥ composition raises it instead of ignoring
        #: the rule wholesale
        self.expected_components: int = 1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_task(self, task: TaskNode) -> TaskNode:
        if task.name in self.tasks:
            raise GraphError(f"duplicate task {task.name!r}")
        self.tasks[task.name] = task
        return task

    def connect(
        self,
        producer: str | PortRef,
        *consumers: str | PortRef,
        name: Optional[str] = None,
        buffer_size: int = 4096,
    ) -> StreamEdge:
        """Connect ``"task.port"`` endpoints with a new stream."""
        prod = self._parse_ref(producer)
        cons = tuple(self._parse_ref(c) for c in consumers)
        stream_name = name or f"s_{prod.task}_{prod.port}"
        if stream_name in self.streams:
            raise GraphError(f"duplicate stream {stream_name!r}")
        edge = StreamEdge(stream_name, prod, cons, buffer_size=buffer_size)
        self.streams[stream_name] = edge
        return edge

    @staticmethod
    def _parse_ref(ref: str | PortRef) -> PortRef:
        if isinstance(ref, PortRef):
            return ref
        task, sep, port = ref.partition(".")
        if not sep or not task or not port:
            raise GraphError(f"bad port reference {ref!r}; expected 'task.port'")
        return PortRef(task, port)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        bound: Dict[Tuple[str, str], str] = {}
        for edge in self.streams.values():
            self._check_endpoint(edge, edge.producer, Direction.OUT, bound)
            for c in edge.consumers:
                self._check_endpoint(edge, c, Direction.IN, bound)
        # every port must be connected
        for task in self.tasks.values():
            for p in task.ports:
                if (task.name, p.name) not in bound:
                    raise GraphError(f"port {task.name}.{p.name} is not connected")

    def _check_endpoint(
        self,
        edge: StreamEdge,
        ref: PortRef,
        expected: Direction,
        bound: Dict[Tuple[str, str], str],
    ) -> None:
        if ref.task not in self.tasks:
            raise GraphError(f"stream {edge.name!r}: unknown task {ref.task!r}")
        spec = self.tasks[ref.task].port(ref.port)
        if spec.direction is not expected:
            raise GraphError(
                f"stream {edge.name!r}: port {ref} is {spec.direction.value}, "
                f"expected {expected.value}"
            )
        key = (ref.task, ref.port)
        if key in bound:
            raise GraphError(f"port {ref} bound to both {bound[key]!r} and {edge.name!r}")
        bound[key] = edge.name

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def stream_of(self, ref: str | PortRef) -> StreamEdge:
        """The stream bound to a port endpoint."""
        r = self._parse_ref(ref)
        for edge in self.streams.values():
            if edge.producer == r or r in edge.consumers:
                return edge
        raise GraphError(f"port {r} is not connected")

    def input_streams(self, task: str) -> List[StreamEdge]:
        return [e for e in self.streams.values() if any(c.task == task for c in e.consumers)]

    def output_streams(self, task: str) -> List[StreamEdge]:
        return [e for e in self.streams.values() if e.producer.task == task]

    def source_tasks(self) -> List[str]:
        """Tasks with no input ports (pure producers)."""
        return [t.name for t in self.tasks.values() if not t.input_ports()]

    def sink_tasks(self) -> List[str]:
        """Tasks with no output ports (pure consumers)."""
        return [t.name for t in self.tasks.values() if not t.output_ports()]

    def to_networkx(self) -> nx.MultiDiGraph:
        """Structure as a networkx graph (node per task, edge per
        producer→consumer pair, keyed by stream name).  networkx is
        imported here, not at module level: no simulation needs it."""
        import networkx as nx

        g = nx.MultiDiGraph(name=self.name)
        for t in self.tasks.values():
            g.add_node(t.name, mapping=t.mapping, budget=t.budget)
        for e in self.streams.values():
            for c in e.consumers:
                g.add_edge(e.producer.task, c.task, key=e.name, stream=e.name)
        return g

    def is_acyclic(self) -> bool:
        import networkx as nx

        return nx.is_directed_acyclic_graph(self.to_networkx())

    def merge(self, other: "ApplicationGraph", prefix: str = "") -> "ApplicationGraph":
        """Union of two graphs (e.g. encode ∥ decode for time-shift).

        Task and stream names from ``other`` get ``prefix`` prepended;
        returns ``self`` for chaining.
        """
        for t in other.tasks.values():
            self.add_task(
                TaskNode(
                    name=prefix + t.name,
                    kernel_factory=t.kernel_factory,
                    ports=t.ports,
                    task_info=t.task_info,
                    mapping=t.mapping,
                    budget=t.budget,
                )
            )
        for e in other.streams.values():
            name = prefix + e.name
            if name in self.streams:
                raise GraphError(f"duplicate stream {name!r} while merging")
            self.streams[name] = StreamEdge(
                name,
                PortRef(prefix + e.producer.task, e.producer.port),
                tuple(PortRef(prefix + c.task, c.port) for c in e.consumers),
                buffer_size=e.buffer_size,
            )
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ApplicationGraph {self.name!r}: {len(self.tasks)} tasks, {len(self.streams)} streams>"
