"""Module-level workload factories for the parallel runner.

:mod:`repro.runner` ships run *descriptions* — a factory reference plus
keyword arguments — across process boundaries and rebuilds the actual
system/graph inside the worker.  That requires the factories to live at
module level (picklable by reference); the closures that used to be
private to ``cli.py`` and ``tests/conftest.py`` now live here so the
CLI, the exploration library, the benchmarks and the tests all stress
the *same* canonical workloads.

Every factory returns a ``(system, graph)`` pair with the system not
yet configured — exactly what :func:`repro.runner._execute_spec`
expects — and is a pure function of its arguments, so the same call is
byte-reproducible anywhere.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

import numpy as np

from repro.core.config import CoprocessorSpec, ShellParams, SystemParams
from repro.core.system import EclipseSystem
from repro.kahn.analysis import declared_rates, repetition_vector
from repro.kahn.graph import ApplicationGraph, PortSpec, TaskNode
from repro.kahn.library import ConsumerKernel, ForkKernel, MapKernel, ProducerKernel
from repro.sim.faults import FaultPlan

__all__ = [
    "payload_of",
    "synthetic_video_es",
    "pipeline_graph",
    "diamond_graph",
    "quickstart_graph",
    "GRAPH_BUILDERS",
    "conformance_run",
    "quickstart_run",
    "decode_run",
    "explore_decode_run",
    "conferencing_run",
    "timeshift_loss_run",
    "multistream_contention_run",
    "RUN_FACTORIES",
]


# ---------------------------------------------------------------------------
# deterministic payloads and canonical graphs
# ---------------------------------------------------------------------------
def payload_of(n: int, seed: int = 3) -> bytes:
    """n pseudo-random-looking but deterministic bytes."""
    if n >= 256:
        return ((np.arange(n, dtype=np.int64) * 89 + seed) % 256).astype(np.uint8).tobytes()
    return bytes((i * 89 + seed) % 256 for i in range(n))


def _grained(kernel_cls, grain: int):
    """The kernel's ports re-declared with the actual sync grain, so
    the SDF rate check and the buffer lints have real numbers."""
    return tuple(PortSpec(p.name, p.direction, grain) for p in kernel_cls.PORTS)


def _checked(g: ApplicationGraph) -> ApplicationGraph:
    """Fail fast on a malformed spec: structural validation always,
    SDF rate consistency whenever every port declares its grain."""
    g.validate()
    rates = declared_rates(g)
    if rates:
        repetition_vector(g, rates)
    return g


def pipeline_graph(payload: bytes, chunk: int = 16, buffer_size: int = 64) -> ApplicationGraph:
    """src -> map -> dst: the minimal multi-hop stream."""
    g = ApplicationGraph("pipeline")
    g.add_task(
        TaskNode("src", lambda: ProducerKernel(payload, chunk=chunk), _grained(ProducerKernel, chunk))
    )
    g.add_task(
        TaskNode(
            "xf",
            lambda: MapKernel(lambda b: bytes((x + 1) % 256 for x in b), chunk=chunk),
            _grained(MapKernel, chunk),
        )
    )
    g.add_task(TaskNode("dst", lambda: ConsumerKernel(chunk=chunk), _grained(ConsumerKernel, chunk)))
    g.connect("src.out", "xf.in", buffer_size=buffer_size)
    g.connect("xf.out", "dst.in", buffer_size=buffer_size)
    return _checked(g)


def diamond_graph(payload: bytes, chunk: int = 16, buffer_size: int = 96) -> ApplicationGraph:
    """src -> fork -> (map -> da | db): multicast + asymmetric arms."""
    g = ApplicationGraph("diamond")
    g.add_task(
        TaskNode("src", lambda: ProducerKernel(payload, chunk=chunk), _grained(ProducerKernel, chunk))
    )
    g.add_task(TaskNode("fork", lambda: ForkKernel(chunk=chunk), _grained(ForkKernel, chunk)))
    g.add_task(
        TaskNode(
            "ma",
            lambda: MapKernel(lambda b: bytes(x ^ 0x3C for x in b), chunk=chunk),
            _grained(MapKernel, chunk),
        )
    )
    g.add_task(TaskNode("da", lambda: ConsumerKernel(chunk=chunk), _grained(ConsumerKernel, chunk)))
    g.add_task(TaskNode("db", lambda: ConsumerKernel(chunk=chunk), _grained(ConsumerKernel, chunk)))
    g.connect("src.out", "fork.in", buffer_size=buffer_size)
    g.connect("fork.out_a", "ma.in", buffer_size=buffer_size)
    g.connect("ma.out", "da.in", buffer_size=buffer_size)
    g.connect("fork.out_b", "db.in", buffer_size=buffer_size)
    return _checked(g)


def quickstart_graph(payload: bytes, chunk: int = 32, buffer_size: int = 128) -> ApplicationGraph:
    """src -> dst: the CLI quickstart demo graph."""
    g = ApplicationGraph("cli-demo")
    g.add_task(
        TaskNode("src", lambda: ProducerKernel(payload, chunk=chunk), _grained(ProducerKernel, chunk))
    )
    g.add_task(TaskNode("dst", lambda: ConsumerKernel(chunk=chunk), _grained(ConsumerKernel, chunk)))
    g.connect("src.out", "dst.in", buffer_size=buffer_size)
    return _checked(g)


GRAPH_BUILDERS = {"pipeline": pipeline_graph, "diamond": diamond_graph}


# ---------------------------------------------------------------------------
# synthetic content, encoded once per process
# ---------------------------------------------------------------------------
#: entries per content cache (each holds a few kB of encoded bytes)
CONTENT_CACHE_SIZE = 16


@functools.lru_cache(maxsize=CONTENT_CACHE_SIZE, typed=True)
def _video_es(width, height, frames, gop_n, gop_m, noise, half_pel) -> bytes:
    """Synthesise and encode the test sequence, once per process.

    A sweep varies the mapping (loss seed, FEC group, buffer sizes) over
    one fixed programme, so re-encoding it per point is wasted work.  A
    module-level cache is safe here: the function is pure and its value
    is immutable ``bytes``, so a hit is indistinguishable from a
    recompute and nothing can leak from one run into the next.  Only the
    bytes are cached — never ``CodecParams``, frames, systems, graphs or
    kernels, which callers build fresh.  Callers pass every argument
    positionally so keyword and positional call sites share one entry.
    """
    from repro.media import CodecParams, encode_sequence, synthetic_sequence

    codec = CodecParams(width=width, height=height, gop_n=gop_n, gop_m=gop_m,
                        half_pel=half_pel)
    bitstream, _, _ = encode_sequence(synthetic_sequence(width, height, frames, noise=noise),
                                      codec)
    return bitstream


@functools.lru_cache(maxsize=CONTENT_CACHE_SIZE, typed=True)
def _av_ts(width, height, frames, gop_n, gop_m, audio_blocks, noise, half_pel) -> bytes:
    """The synthetic video and audio muxed into one transport stream,
    once per process (safe for the reasons :func:`_video_es` gives)."""
    from repro.media.audio import BLOCK_SAMPLES, adpcm_encode, synthetic_pcm
    from repro.media.transport import AUDIO_PID, VIDEO_PID, ts_mux

    video_es = _video_es(width, height, frames, gop_n, gop_m, noise, half_pel)
    audio_es = adpcm_encode(synthetic_pcm(BLOCK_SAMPLES * audio_blocks))
    return ts_mux({VIDEO_PID: video_es, AUDIO_PID: audio_es})


def synthetic_video_es(width: int, height: int, frames: int, gop_n: int, gop_m: int,
                       noise: float = 1.0, half_pel: bool = False) -> bytes:
    """The encoded video elementary stream of the deterministic
    synthetic sequence (memoised per process, see :func:`_video_es`)."""
    return _video_es(width, height, frames, gop_n, gop_m, noise, half_pel)


def _fault_plan(spec: Optional[str], seed: Optional[int]) -> Optional[FaultPlan]:
    """The plan ``spec`` names, ``seed`` overriding its own; None when
    it injects nothing."""
    plan = FaultPlan.parse(spec, seed=seed) if spec else None
    return plan if plan is not None and plan.any_faults() else None


# ---------------------------------------------------------------------------
# run factories (RunSpec targets)
# ---------------------------------------------------------------------------
def conformance_run(
    graph: str = "pipeline",
    payload_len: int = 2048,
    fault_spec: str = "chaos",
    fault_seed: int = 0,
    watchdog_timeout: Optional[int] = 2000,
    n_coprocs: int = 3,
    chunk: int = 16,
    obs_level: str = "full",
    sample_interval: Optional[int] = None,
) -> Tuple[EclipseSystem, ApplicationGraph]:
    """One differential-conformance point: a small graph on a plain
    n-coprocessor instance under a seeded fault plan."""
    try:
        builder = GRAPH_BUILDERS[graph]
    except KeyError:
        raise ValueError(f"unknown conformance graph {graph!r} "
                         f"(want one of {sorted(GRAPH_BUILDERS)})")
    params = SystemParams(watchdog_timeout=watchdog_timeout, obs_level=obs_level,
                          sample_interval=sample_interval)
    system = EclipseSystem(
        [CoprocessorSpec(f"cp{i}") for i in range(n_coprocs)], params,
        faults=_fault_plan(fault_spec, fault_seed),
    )
    return system, builder(payload_of(payload_len), chunk=chunk)


def quickstart_run(
    payload_len: int = 4096,
    watchdog_timeout: Optional[int] = None,
    obs_level: str = "full",
    sample_interval: Optional[int] = None,
    fault_spec: Optional[str] = None,
    fault_seed: Optional[int] = None,
) -> Tuple[EclipseSystem, ApplicationGraph]:
    """The CLI quickstart: producer/consumer on two coprocessors."""
    payload = bytes((11 * i) % 256 for i in range(payload_len))
    params = SystemParams(watchdog_timeout=watchdog_timeout, obs_level=obs_level,
                          sample_interval=sample_interval)
    system = EclipseSystem([CoprocessorSpec("cp0"), CoprocessorSpec("cp1")], params,
                           faults=_fault_plan(fault_spec, fault_seed))
    return system, quickstart_graph(payload)


def decode_run(
    width: int = 48,
    height: int = 32,
    frames: int = 4,
    gop_n: int = 4,
    gop_m: int = 2,
    dram_latency: int = 60,
    buffer_packets: int = 3,
    prefetch_lines: Optional[int] = None,
    obs_level: str = "full",
    sample_interval: Optional[int] = None,
    half_pel: bool = False,
    fault_spec: Optional[str] = None,
    fault_seed: Optional[int] = None,
    watchdog_timeout: Optional[int] = None,
) -> Tuple[EclipseSystem, ApplicationGraph]:
    """A Figure-8 decode of a synthetic sequence (encode included, so
    the factory is self-contained and picklable as a description)."""
    from repro.instance.eclipse_mpeg import DECODE_MAPPING, build_mpeg_instance
    from repro.media.pipelines import decode_graph

    bitstream = synthetic_video_es(width, height, frames, gop_n, gop_m, half_pel=half_pel)
    shell = ShellParams(prefetch_lines=prefetch_lines) if prefetch_lines is not None else None
    system = build_mpeg_instance(
        SystemParams(dram_latency=dram_latency, watchdog_timeout=watchdog_timeout,
                     obs_level=obs_level, sample_interval=sample_interval),
        shell=shell,
        faults=_fault_plan(fault_spec, fault_seed),
    )
    graph = decode_graph(bitstream, mapping=DECODE_MAPPING, buffer_packets=buffer_packets)
    return system, graph


def explore_decode_run(
    bitstream: bytes,
    prefetch_lines: Optional[int] = None,
    buffer_packets: int = 3,
    obs_level: str = "full",
    sample_interval: Optional[int] = None,
) -> Tuple[EclipseSystem, ApplicationGraph]:
    """One point of the CLI ``explore`` sweep: decode a pre-encoded
    bitstream on the Figure 8 instance with one knob turned."""
    from repro.instance.eclipse_mpeg import DECODE_MAPPING, build_mpeg_instance
    from repro.media.pipelines import decode_graph

    shell = ShellParams(prefetch_lines=prefetch_lines) if prefetch_lines is not None else None
    # dram_latency=60 matches build_mpeg_instance's params=None default —
    # building explicit params must not silently change any timing parameter
    system = build_mpeg_instance(
        SystemParams(dram_latency=60, obs_level=obs_level,
                     sample_interval=sample_interval),
        shell=shell,
    )
    graph = decode_graph(bitstream, mapping=DECODE_MAPPING, buffer_packets=buffer_packets)
    return system, graph


def solved_run(
    workload: str = "conformance-pipeline",
    sram_size: Optional[int] = None,
    elasticity: int = 1,
) -> Tuple[EclipseSystem, ApplicationGraph]:
    """A workload whose configuration is *derived*, not spelled out.

    ``repro submit --workload solved --arg sram_size=4096`` hands the
    service an SRAM budget instead of a full spec: the constraint
    solver (:func:`repro.verify.solve_workload`) derives minimal buffer
    sizes (plus grain and mapping where the workload exposes them) for
    the named solve model, and this factory rebuilds the workload with
    those sizes stamped in.  The solver is deterministic, so the
    run — and its content-addressed cache key — depends only on
    ``(workload, sram_size, elasticity)``.
    """
    from repro.verify.solve_run import SOLVE_MODELS, solve_workload

    solution = solve_workload(workload, sram_size=sram_size, elasticity=elasticity)
    system, graph = SOLVE_MODELS[workload].build(grain=solution.grain)
    for name, size in solution.buffer_sizes.items():
        graph.streams[name].buffer_size = size
    return system, graph


# ---------------------------------------------------------------------------
# lossy-ingest workloads (repro.net; docs/networking.md)
# ---------------------------------------------------------------------------
def _av_transport_stream(width, height, frames, gop_n, gop_m, audio_blocks,
                         noise=1.0, half_pel=False):
    """Deterministic A/V content muxed into one transport stream: fresh
    codec parameters and the memoised stream bytes."""
    from repro.media import CodecParams

    codec = CodecParams(width=width, height=height, gop_n=gop_n, gop_m=gop_m,
                        half_pel=half_pel)
    return codec, _av_ts(width, height, frames, gop_n, gop_m, audio_blocks, noise, half_pel)


def conferencing_run(
    width: int = 48,
    height: int = 32,
    frames: int = 5,
    gop_n: int = 6,
    gop_m: int = 3,
    audio_blocks: int = 6,
    loss_spec: str = "moderate",
    loss_seed: Optional[int] = None,
    conceal_budget: float = 0.5,
    dram_latency: int = 60,
    buffer_packets: int = 3,
    obs_level: str = "full",
    sample_interval: Optional[int] = None,
) -> Tuple[EclipseSystem, ApplicationGraph]:
    """Conferencing: the full §6 A/V decode behind a lossy network.

    The transport stream passes the seeded :mod:`repro.net` ingest
    (``loss_spec`` is a :class:`~repro.sim.faults.LossPlan` preset or
    key=value list) before it reaches the demux; unrecovered erasures
    degrade into concealed frames and silenced audio blocks, reported
    under ``SystemResult.degradation``."""
    from repro.instance.eclipse_mpeg import build_mpeg_instance
    from repro.media.av_pipeline import AV_DECODE_MAPPING, lossy_av_decode_graph
    from repro.net import ingest
    from repro.sim.faults import LossPlan

    codec, ts = _av_transport_stream(width, height, frames, gop_n, gop_m, audio_blocks)
    result = ingest(ts, LossPlan.parse(loss_spec, seed=loss_seed))
    system = build_mpeg_instance(
        SystemParams(dram_latency=dram_latency, obs_level=obs_level,
                     sample_interval=sample_interval)
    )
    graph = lossy_av_decode_graph(
        result, codec, frames, mapping=AV_DECODE_MAPPING,
        buffer_packets=buffer_packets, conceal_budget=conceal_budget,
    )
    return system, graph


def timeshift_loss_run(
    width: int = 48,
    height: int = 32,
    frames: int = 4,
    gop_n: int = 4,
    gop_m: int = 2,
    audio_blocks: int = 4,
    loss_spec: str = "mild",
    loss_seed: Optional[int] = None,
    conceal_budget: float = 0.5,
    sram_size: int = 192 * 1024,
    buffer_packets: int = 3,
    obs_level: str = "full",
    sample_interval: Optional[int] = None,
) -> Tuple[EclipseSystem, ApplicationGraph]:
    """Time-shift under loss: record a clean programme while playing
    back one that arrives over the lossy network — the §6 simultaneous
    encode+decode scenario with a degraded playback leg."""
    from repro.instance.eclipse_mpeg import ENCODE_MAPPING, build_mpeg_instance
    from repro.media import CodecParams, synthetic_sequence
    from repro.media.av_pipeline import AV_DECODE_MAPPING, lossy_av_decode_graph
    from repro.media.pipelines import encode_graph
    from repro.net import ingest
    from repro.sim.faults import LossPlan

    codec, ts = _av_transport_stream(width, height, frames, gop_n, gop_m, audio_blocks)
    result = ingest(ts, LossPlan.parse(loss_spec, seed=loss_seed))
    play = lossy_av_decode_graph(
        result, codec, frames, mapping=AV_DECODE_MAPPING,
        buffer_packets=buffer_packets, conceal_budget=conceal_budget,
    )
    rec_params = CodecParams(width=width, height=height, gop_n=gop_n, gop_m=gop_m)
    raw = synthetic_sequence(width, height, frames, noise=1.0)
    graph = encode_graph(raw, rec_params, ENCODE_MAPPING,
                         buffer_packets, name="timeshift_loss")
    graph.merge(play, prefix="play_")
    # record ∥ playback are deliberately independent islands; declare
    # them so G009 still catches an accidental third component
    graph.expected_components = 2
    graph.validate()
    system = build_mpeg_instance(
        SystemParams(sram_size=sram_size, obs_level=obs_level,
                     sample_interval=sample_interval)
    )
    return system, graph


def multistream_contention_run(
    width: int = 48,
    height: int = 32,
    frames: int = 4,
    gop_n: int = 4,
    gop_m: int = 2,
    audio_blocks: int = 4,
    loss_spec: str = "moderate",
    loss_seed_a: int = 1,
    loss_seed_b: int = 2,
    conceal_budget: float = 0.5,
    sram_size: int = 192 * 1024,
    buffer_packets: int = 3,
    obs_level: str = "full",
    sample_interval: Optional[int] = None,
) -> Tuple[EclipseSystem, ApplicationGraph]:
    """Two lossy conferencing streams decoded on one instance — every
    coprocessor multi-tasks, so the erasure/concealment schedules of
    both streams interleave under real resource contention."""
    from repro.instance.eclipse_mpeg import build_mpeg_instance
    from repro.media.av_pipeline import AV_DECODE_MAPPING, lossy_av_decode_graph
    from repro.net import ingest
    from repro.sim.faults import LossPlan

    codec, ts = _av_transport_stream(width, height, frames, gop_n, gop_m, audio_blocks)
    plan = LossPlan.parse(loss_spec)
    res_a = ingest(ts, plan.with_(seed=loss_seed_a))
    res_b = ingest(ts, plan.with_(seed=loss_seed_b))
    graph = lossy_av_decode_graph(
        res_a, codec, frames, mapping=AV_DECODE_MAPPING,
        buffer_packets=buffer_packets, conceal_budget=conceal_budget,
        name="multistream",
    )
    other = lossy_av_decode_graph(
        res_b, codec, frames, mapping=AV_DECODE_MAPPING,
        buffer_packets=buffer_packets, conceal_budget=conceal_budget,
        name="stream_b",
    )
    graph.merge(other, prefix="b_")
    # two deliberately independent streams: declare the islands so the
    # graph linter (G009) still catches a third, accidental one
    graph.expected_components = 2
    graph.validate()
    system = build_mpeg_instance(
        SystemParams(sram_size=sram_size, obs_level=obs_level,
                     sample_interval=sample_interval)
    )
    return system, graph


#: The factories a sweep-service client may name instead of spelling a
#: ``module:function`` reference (``repro submit --workload NAME``).
#: Only self-contained factories belong here — every kwarg must be
#: expressible on a command line (``explore_decode_run`` needs a
#: pre-encoded bitstream, so it is submitted by reference instead).
RUN_FACTORIES = {
    "quickstart": quickstart_run,
    "decode": decode_run,
    "conformance": conformance_run,
    "solved": solved_run,
    "conferencing": conferencing_run,
    "timeshift-loss": timeshift_loss_run,
    "multistream": multistream_contention_run,
}
