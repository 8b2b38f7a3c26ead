"""Eclipse: heterogeneous multiprocessor architecture for flexible
media processing — a full reproduction of Rutten et al., IPPS 2002.

The package is layered exactly like the paper's system:

``repro.sim``
    discrete-event simulation kernel (the substrate the original
    cycle-accurate simulator was built on).
``repro.kahn``
    the Kahn-process-network model of computation: application graphs,
    the five-primitive task-level interface, and the reference
    functional executor that defines golden stream histories.
``repro.hw``
    memory and interconnect: shared wide SRAM, arbitrated read/write
    buses, off-chip memory port.
``repro.core``
    the Eclipse contribution: coprocessor shells with stream/task
    tables, distributed putspace synchronization, explicit
    sync-driven cache coherency, weighted round-robin best-guess
    scheduling, and the system assembly.
``repro.media``
    the MPEG-2-like workload: a real (simplified) video codec, both as
    a functional reference and as Eclipse task kernels, plus the
    decode/encode/time-shift application graphs.
``repro.instance``
    the paper's first instantiation (Figure 8) and its area/power
    model; baseline architectures for the ablations.
``repro.trace``
    §5.4 measurement: counters, sampling, the Figure 9 viewer, and
    the Figure 10 bottleneck analysis.
``repro.obs``
    the tiered observability contract: recording levels
    (off/counters/series/full), the typed metrics registry, and the
    span tracer with Chrome-trace/Perfetto export.

Quickstart
----------
>>> from repro import (CodecParams, encode_sequence, synthetic_sequence,
...                    build_mpeg_instance, DECODE_MAPPING, decode_graph)
>>> params = CodecParams(width=48, height=32, gop_n=6, gop_m=3)
>>> frames = synthetic_sequence(params.width, params.height, 6)
>>> bits, golden, _ = encode_sequence(frames, params)
>>> system = build_mpeg_instance()
>>> system.configure(decode_graph(bits, mapping=DECODE_MAPPING))
>>> result = system.run()
>>> result.completed
True
"""

from repro.core import (
    CoprocessorSpec,
    DeadlockError,
    EclipseSystem,
    FaultPlan,
    LossPlan,
    ShellParams,
    StalledError,
    StallSpec,
    SystemParams,
    SystemResult,
)
from repro.instance import (
    AreaPowerModel,
    DECODE_MAPPING,
    ENCODE_MAPPING,
    build_mpeg_instance,
    decode_on_instance,
    encode_on_instance,
    timeshift_on_instance,
)
from repro.kahn import (
    ApplicationGraph,
    FunctionalExecutor,
    Kernel,
    PortSpec,
    StepOutcome,
    TaskNode,
    check_determinism,
)
from repro.media import (
    CodecParams,
    decode_sequence,
    encode_sequence,
    synthetic_sequence,
)
from repro.media.pipelines import decode_graph, encode_graph, timeshift_graph
from repro.media.tasks import CostModel
from repro.resilience import (
    InvariantViolation,
    MonitorSuite,
    SnapshotError,
    SystemSnapshot,
    capture,
    restore,
)
from repro.obs import MetricsRegistry, ObservabilityLevel, SpanTracer
from repro.runner import ParallelRunner, RunReport, RunResult, RunSpec, run_specs
from repro.trace import Sampler, collect_counters

__version__ = "1.0.0"

__all__ = [
    "ApplicationGraph",
    "AreaPowerModel",
    "CodecParams",
    "CoprocessorSpec",
    "CostModel",
    "DECODE_MAPPING",
    "ENCODE_MAPPING",
    "EclipseSystem",
    "FunctionalExecutor",
    "InvariantViolation",
    "Kernel",
    "DeadlockError",
    "FaultPlan",
    "LossPlan",
    "MetricsRegistry",
    "MonitorSuite",
    "ObservabilityLevel",
    "ParallelRunner",
    "PortSpec",
    "RunReport",
    "RunResult",
    "RunSpec",
    "run_specs",
    "Sampler",
    "ShellParams",
    "SnapshotError",
    "SpanTracer",
    "StalledError",
    "StallSpec",
    "StepOutcome",
    "SystemParams",
    "SystemResult",
    "SystemSnapshot",
    "TaskNode",
    "build_mpeg_instance",
    "capture",
    "check_determinism",
    "collect_counters",
    "restore",
    "decode_graph",
    "decode_on_instance",
    "decode_sequence",
    "encode_graph",
    "encode_on_instance",
    "encode_sequence",
    "synthetic_sequence",
    "timeshift_graph",
    "timeshift_on_instance",
]
