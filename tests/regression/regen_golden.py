#!/usr/bin/env python
"""Regenerate the golden regression traces.

Usage (from the repo root)::

    PYTHONPATH=src python tests/regression/regen_golden.py

The traces pin the observable behaviour of two canonical workloads —
the quickstart pipeline and a small Figure-8 decode — at fixed
parameters: total cycles, per-task busy cycles and step counts,
counter totals, and the sha256 of the per-stream byte histories.
``tests/regression/test_golden_traces.py`` fails with a readable diff
when any of these drift.

``reference_digests.json`` freezes finer-grained outputs, first
recorded from the former reference engine: the full canonical result
and state digest of fixed conformance points, the quickstart operation
log, the blackout deadlock verdict with its progress-poll count, and
the exported bytes of every span/op recorder, the encoder's
bitstream and reconstructed planes on fixed sequences, the
centralized-sync baseline, and what fixed ``python -m repro``
invocations print and write
(``tests/regression/test_reference_digests.py``).

Regenerate (and commit the diff) only when a change is *supposed* to
shift timing or histories — e.g. a scheduler or cache-model change —
and say why in the commit message.  A drift you cannot explain is a
regression, not a new golden.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: workload name -> (factory dotted path, kwargs).  Kwargs are part of
#: the trace so a parameter change shows up as an explicit diff.
WORKLOADS = {
    "quickstart": ("repro.workloads:quickstart_run", {"payload_len": 4096}),
    "figure8_decode": (
        "repro.workloads:decode_run",
        {"width": 48, "height": 32, "frames": 4, "gop_n": 4, "gop_m": 2},
    ),
    # faulted variant: a lossy/jittery fabric with the watchdog healing
    # it — pins the recovery machinery's schedule, not just the happy
    # path (drops, retries and recoveries are part of the trace)
    "conformance_faulted": (
        "repro.workloads:conformance_run",
        {
            "graph": "diamond",
            "payload_len": 2048,
            "fault_spec": "chaos",
            "fault_seed": 7,
            "watchdog_timeout": 2000,
        },
    ),
    # lossy network ingest: drops survive FEC/RTX, frames are concealed
    # — pins the transport recovery schedule and the degradation
    # accounting alongside the decode timing (docs/networking.md)
    "conferencing_lossy": (
        "repro.workloads:conferencing_run",
        {
            "frames": 4,
            "gop_n": 4,
            "gop_m": 2,
            "audio_blocks": 4,
            "loss_spec": "drop=0.25,fec_group=4,max_rtx=1,seed=7",
        },
    ),
}

#: checkpoint variant name -> (base workload, boundary cycle).  The
#: trace pins the state digest at a mid-run quiescent boundary AND the
#: final result after resuming — so advance()+run() staying equivalent
#: to one uninterrupted run() is regression-checked.
CHECKPOINTS = {
    "quickstart_midrun": ("quickstart", 1500),
    "conformance_faulted_midrun": ("conformance_faulted", 3000),
}


#: trace fields that digest recorded state (byte histories; at the
#: boundary, the whole exported state) — a run below the ``full``
#: observability tier records less, so it reproduces every other field
HISTORY_FIELDS = ("histories_sha256", "boundary_state_digest")


def _run_workload(name: str, obs_level: str = "full"):
    from repro.runner import resolve_factory

    factory_path, kwargs = WORKLOADS[name]
    system, graph = resolve_factory(factory_path)(**kwargs, obs_level=obs_level)
    system.configure(graph)
    return system


def build_trace(name: str, obs_level: str = "full") -> dict:
    """Run one canonical workload and distill its golden trace."""
    from repro.runner import _histories_digest

    factory_path, kwargs = WORKLOADS[name]
    system = _run_workload(name, obs_level)
    result = system.run()
    trace = {
        "workload": {"factory": factory_path, "kwargs": kwargs},
        "cycles": result.cycles,
        "completed": result.completed,
        "tasks": {
            tname: {
                "coprocessor": t.coprocessor,
                "steps_completed": t.steps_completed,
                "busy_cycles": t.busy_cycles,
                "compute_cycles": t.compute_cycles,
            }
            for tname, t in sorted(result.tasks.items())
        },
        "counters": {
            "messages_sent": result.messages_sent,
            "cpu_sync_ops": result.cpu_sync_ops,
            "total_stream_bytes": sum(
                s.bytes_transferred for s in result.streams.values()
            ),
            "denied_getspace": sum(s.denied_getspace for s in result.streams.values()),
            "granted_getspace": sum(s.granted_getspace for s in result.streams.values()),
            "putspace_messages": sum(s.putspace_messages for s in result.streams.values()),
        },
        "histories_sha256": _histories_digest(result.histories),
    }
    if result.robustness is not None:
        rob = result.robustness
        trace["robustness"] = {
            "messages_dropped": rob["messages_dropped"],
            "watchdog_fires": rob["watchdog_fires"],
            "retries_sent": rob["retries_sent"],
            "recoveries": rob["recoveries"],
        }
    if result.degradation is not None:
        trace["degradation"] = result.degradation
    return trace


def build_checkpoint_trace(name: str, obs_level: str = "full") -> dict:
    """Advance a workload to a mid-run boundary, pin the state digest,
    resume to completion, and pin the final result."""
    from repro.runner import _histories_digest

    base, boundary = CHECKPOINTS[name]
    system = _run_workload(base, obs_level)
    system.advance(boundary)
    digest = system.state_digest()
    result = system.run()
    return {
        "base_workload": base,
        "boundary_cycle": boundary,
        "boundary_state_digest": digest,
        "final_cycles": result.cycles,
        "completed": result.completed,
        "histories_sha256": _histories_digest(result.histories),
    }


#: fixed conformance points spanning both graphs, four fault plans,
#: fault seeds 0-7, 2-4 coprocessors and 128-768 B payloads; by the
#: Chinese remainder theorem every (graph, fault plan, coprocessor
#: count) combination occurs in the first 24
CONFORMANCE_POINTS = [
    {
        "graph": ("pipeline", "diamond")[i % 2],
        "fault_spec": ("none", "chaos", "drop", "delay")[(i // 2) % 4],
        "fault_seed": (i // 3) % 8,
        "n_coprocs": 2 + i % 3,
        "payload_len": 16 * (8 + i * 40 // 31),
        "watchdog_timeout": 2000,
    }
    for i in range(32)
]

#: payload of the quickstart run whose operation log is pinned
OPLOG_PAYLOAD = 2048

#: blackout deadlock variants: with or without a sampler's pending
#: ticks on the event queue while the deadlock monitor polls
BLACKOUT_VARIANTS = {"no_sampler": False, "sampler": True}


def _sha256(blob: str) -> str:
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _run_digests(system, graph) -> dict:
    """Run ``graph`` on ``system``; SHA-256 of the canonical full
    result (with histories) and the final state digest."""
    system.configure(graph)
    result = system.run()
    return {
        "result_sha256": _sha256(json.dumps(
            result.to_dict(include_histories=True), sort_keys=True, separators=(",", ":")
        )),
        "state_digest": system.state_digest(),
    }


def conformance_digests(point: dict) -> dict:
    """The digests of one conformance point."""
    from repro.workloads import conformance_run

    return _run_digests(*conformance_run(**point))


#: centralized-sync baseline points (paper §2.3): every GetSpace and
#: PutSpace queues on one CPU whose handler takes 0, 1 or 40 cycles,
#: for both graphs on three coprocessors, with and without faults
CENTRALIZED_POINTS = [
    {"graph": graph, "central_sync_cycles": cycles, "fault_spec": spec, "fault_seed": 3}
    for graph in ("pipeline", "diamond")
    for cycles in (0, 1, 40)
    for spec in ("none", "chaos")
]

#: producer/consumer pair counts of the pinned sync scalability sweep
SCALABILITY_PAIRS = [1, 2, 4, 8]


def centralized_digests(point: dict) -> dict:
    """The digests of one centralized-sync point: a conformance graph
    (2048-byte payload) on three coprocessors in ``centralized`` sync
    mode."""
    from repro.core.config import CoprocessorSpec, SystemParams
    from repro.core.system import EclipseSystem
    from repro.sim.faults import FaultPlan
    from repro.workloads import GRAPH_BUILDERS, payload_of

    plan = FaultPlan.parse(point["fault_spec"], seed=point["fault_seed"])
    system = EclipseSystem(
        [CoprocessorSpec(f"cp{i}") for i in range(3)],
        SystemParams(sync_mode="centralized",
                     central_sync_cycles=point["central_sync_cycles"],
                     watchdog_timeout=2000),
        faults=plan if plan.any_faults() else None,
    )
    return _run_digests(system, GRAPH_BUILDERS[point["graph"]](payload_of(2048), chunk=16))


def scalability_points() -> list:
    """Every field of the distributed-vs-centralized sync sweep."""
    from dataclasses import asdict

    from repro.instance.baselines import sync_scalability_experiment

    return [asdict(p) for p in sync_scalability_experiment(SCALABILITY_PAIRS)]


def oplog_digest() -> dict:
    """SHA-256 over every record of the quickstart operation log."""
    from dataclasses import astuple

    from repro.trace.oplog import OpLog
    from repro.workloads import quickstart_run

    system, graph = quickstart_run(payload_len=OPLOG_PAYLOAD)
    system.configure(graph)
    log = OpLog(system, capacity=100_000)
    system.run()
    assert log.dropped == 0
    return {
        "records": len(log.records),
        "sha256": _sha256(json.dumps([astuple(r) for r in log.records])),
    }


#: cycle of the checkpoint in the pinned quickstart span trace
TRACE_CHECKPOINT_CYCLE = 1500

#: a stall-faulted run traced through a small ring: its pinned export
#: carries fault instants in the totals and ring drops
STALL_TRACE_POINT = {"graph": "pipeline", "payload_len": 512,
                     "fault_spec": "stall=0.5,seed=3"}
STALL_TRACE_CAPACITY = 32

#: ring capacity of the pinned op-log rendering (small enough to drop)
OPLOG_RENDER_CAPACITY = 50

#: lossy plan of the pinned net-ingest timeline (it NACKs, recovers by
#: FEC and by retransmission, and declares slots lost)
INGEST_LOSS_SPEC = "drop=0.4,fec_group=4,max_rtx=1,seed=1"


def _export_digest(recorder) -> dict:
    """SHA-256 of the bytes ``recorder.write()`` puts in a file, with
    the ring's counts."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.json")
        recorder.write(path)
        with open(path, "rb") as fh:
            blob = fh.read()
    return {
        "total": recorder.total,
        "dropped": recorder.dropped,
        "sha256": hashlib.sha256(blob).hexdigest(),
    }


def quickstart_trace() -> dict:
    """The default quickstart's span-trace file, with one mid-run
    checkpoint instant."""
    from repro.workloads import quickstart_run

    system, graph = quickstart_run()
    system.configure(graph)
    tracer = system.attach_tracer()
    system.advance(TRACE_CHECKPOINT_CYCLE)
    system.export_state()
    system.run()
    return _export_digest(tracer)


def stall_trace() -> dict:
    """A stall-faulted conformance run's span-trace file through a
    ring too small to hold it."""
    from repro.workloads import conformance_run

    system, graph = conformance_run(**STALL_TRACE_POINT)
    system.configure(graph)
    tracer = system.attach_tracer(capacity=STALL_TRACE_CAPACITY)
    system.run()
    return _export_digest(tracer)


def decode_trace() -> dict:
    """The span-trace file ``repro trace`` writes by default: the
    default Figure 8 decode, whose demand fills, prefetches and bus
    spans it pins in order."""
    from repro.workloads import decode_run

    system, graph = decode_run()
    system.configure(graph)
    tracer = system.attach_tracer()
    system.run()
    return _export_digest(tracer)


def oplog_render() -> dict:
    """The rendered tail of the quickstart operation log, through a
    ring that drops records."""
    from repro.trace.oplog import OpLog, render_oplog
    from repro.workloads import quickstart_run

    system, graph = quickstart_run(payload_len=OPLOG_PAYLOAD)
    system.configure(graph)
    log = OpLog(system, capacity=OPLOG_RENDER_CAPACITY)
    system.run()
    return {"total": log.total, "dropped": log.dropped,
            "sha256": _sha256(render_oplog(log))}


def ingest_trace() -> dict:
    """The net ingest's tick-clock timeline on one lossy plan."""
    from repro.media.transport import AUDIO_PID, VIDEO_PID, ts_mux
    from repro.net import ingest, tick_recorder
    from repro.sim.faults import LossPlan

    ts = ts_mux({VIDEO_PID: bytes((13 * i) % 256 for i in range(3000)),
                 AUDIO_PID: bytes((29 * i) % 256 for i in range(1000))})
    recorder = tick_recorder()
    ingest(ts, LossPlan.parse(INGEST_LOSS_SPEC), recorder=recorder)
    return _export_digest(recorder)


#: pinned recorder export -> the function that rebuilds its digest
RECORDER_EXPORTS = {
    "quickstart_trace": quickstart_trace,
    "stall_trace": stall_trace,
    "decode_trace": decode_trace,
    "oplog_render": oplog_render,
    "ingest_trace": ingest_trace,
}


#: fixed encoder cases: the synthetic sequence (size, frame count,
#: noise) and every ``CodecParams`` field that differs from its default.
#: They cover integer- and half-pel search, single-macroblock frames
#: (every candidate clamped at the borders), ranges 2-7 and flat content
ENCODER_CASES = [
    {"width": 96, "height": 64, "frames": 6, "gop_n": 6, "gop_m": 3},
    {"width": 48, "height": 32, "frames": 9, "half_pel": True},
    {"width": 32, "height": 16, "frames": 4, "gop_n": 4, "gop_m": 2},
    {"width": 64, "height": 48, "frames": 7, "gop_n": 3, "gop_m": 1,
     "half_pel": True, "search_range": 2},
    {"width": 16, "height": 16, "frames": 3, "search_range": 6},
    {"width": 16, "height": 16, "frames": 4, "half_pel": True, "search_range": 7,
     "noise": 0.0},
]


def encoder_digests(case: dict) -> dict:
    """SHA-256 of ``encode_sequence``'s bitstream and of its
    reconstructed Y, Cb and Cr planes, frame by frame."""
    from repro.media import CodecParams, encode_sequence, synthetic_sequence

    fields = dict(case)
    frames_n, noise = fields.pop("frames"), fields.pop("noise", 2.0)
    frames = synthetic_sequence(fields["width"], fields["height"], frames_n, noise=noise)
    bitstream, recon, _stats = encode_sequence(frames, CodecParams(**fields))
    planes = hashlib.sha256()
    for frame in recon:
        for plane in (frame.y, frame.cb, frame.cr):
            planes.update(plane.tobytes())
    return {
        "bitstream_sha256": hashlib.sha256(bitstream).hexdigest(),
        "recon_sha256": planes.hexdigest(),
    }


def blackout_outcome(sampler: bool) -> dict:
    """Run a total-loss fabric with recovery off into the deadlock
    monitor; pin the verdict cycle, the error text's digest and how
    often the monitor polled global progress."""
    from repro.core.config import CoprocessorSpec, SystemParams
    from repro.core.system import DeadlockError, EclipseSystem
    from repro.sim.faults import FaultPlan
    from repro.trace.sampler import Sampler
    from repro.workloads import payload_of, pipeline_graph

    system = EclipseSystem(
        [CoprocessorSpec(f"cp{i}") for i in range(3)],
        SystemParams(watchdog_timeout=None, deadlock_check_interval=1000,
                     deadlock_patience=40),
        faults=FaultPlan.parse("blackout", seed=0),
    )
    system.configure(pipeline_graph(payload_of(512), chunk=16))
    if sampler:
        Sampler(system, interval=500)
    polls = 0
    progress = system._global_progress

    def counting():
        nonlocal polls
        polls += 1
        return progress()

    system._global_progress = counting
    try:
        system.run()
    except DeadlockError as exc:
        error = str(exc)
    else:  # pragma: no cover - the blackout plan always deadlocks
        raise AssertionError("blackout run finished without a deadlock")
    return {"cycle": system.sim.now, "error_sha256": _sha256(error), "polls": polls}


#: the small decode the CLI cases share
_SMALL_DECODE = ["decode", "--width", "48", "--height", "32", "--frames", "3",
                 "--gop-n", "3", "--gop-m", "1"]

#: pinned ``python -m repro`` argument lists: every mode of the run
#: verbs, each file written under a relative path, sweeps on one job
CLI_ARGVS = [
    ["info"],
    ["estimate"],
    ["quickstart"],
    ["quickstart", "--obs-level", "off"],
    ["quickstart", "--obs-level", "series", "--sample-interval", "200"],
    ["quickstart", "--fault-plan", "chaos", "--watchdog-timeout", "500"],
    ["decode"],
    _SMALL_DECODE + ["--half-pel"],
    _SMALL_DECODE + ["--obs-level", "counters"],
    _SMALL_DECODE + ["--sample-interval", "100"],
    _SMALL_DECODE + ["--fault-plan", "drop", "--watchdog-timeout", "500",
                     "--json", "decode.json"],
    ["decode", "--loss-plan", "heavy", "--loss-seed", "3", "--frames", "3",
     "--json", "lossy.json"],
    ["decode", "--loss-plan", "mild", "--half-pel"],
    ["explore", "--frames", "3", "--jobs", "1", "--report", "explore.json"],
    ["conformance", "--seeds", "3", "--jobs", "1", "--report", "conformance.json"],
    ["conformance", "--fault-plan", "drop=0.3,seed=7", "--jobs", "1"],
    ["conformance", "--obs-level", "off", "--jobs", "1"],
    ["conformance", "--loss-plan", "moderate", "--jobs", "1", "--report", "loss.json"],
    ["conformance", "--loss-plan", "heavy", "--obs-level", "off", "--jobs", "1"],
    ["trace", "--workload", "quickstart", "--out", "quickstart-trace.json"],
]

#: flags whose value names a file the command writes
CLI_FILE_FLAGS = ("--report", "--json", "--out")

#: the wall-clock line a sweep prints, left out of the pinned stdout
_WALL_CLOCK_LINE = re.compile(r"^\d+ runs on \d+ jobs: .*\n", re.MULTILINE)


def cli_digests(argv: list) -> dict:
    """Run ``python -m repro *argv`` in-process, in an empty working
    directory: its exit code, the SHA-256 of its stdout less the
    wall-clock line, and the SHA-256 of each file it wrote."""
    from repro.cli import main

    stdout = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout):
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            files = {}
            for flag, path in zip(argv, argv[1:]):
                if flag in CLI_FILE_FLAGS:
                    with open(path, "rb") as fh:
                        files[path] = hashlib.sha256(fh.read()).hexdigest()
        finally:
            os.chdir(cwd)
    return {
        "exit": code,
        "stdout_sha256": _sha256(_WALL_CLOCK_LINE.sub("", stdout.getvalue())),
        "files": files,
    }


def build_reference_digests() -> dict:
    return {
        "conformance": [
            dict(kwargs=point, **conformance_digests(point))
            for point in CONFORMANCE_POINTS
        ],
        "quickstart_oplog": dict(payload_len=OPLOG_PAYLOAD, **oplog_digest()),
        "blackout_deadlock": {
            name: blackout_outcome(sampler) for name, sampler in BLACKOUT_VARIANTS.items()
        },
        "recorders": {name: build() for name, build in RECORDER_EXPORTS.items()},
        "encoder": [dict(case=case, **encoder_digests(case)) for case in ENCODER_CASES],
        "centralized_sync": {
            "points": [dict(point=point, **centralized_digests(point))
                       for point in CENTRALIZED_POINTS],
            "scalability": dict(pairs=SCALABILITY_PAIRS, points=scalability_points()),
        },
        "cli": [dict(argv=argv, **cli_digests(argv)) for argv in CLI_ARGVS],
    }


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def main() -> int:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in WORKLOADS:
        trace = build_trace(name)
        path = golden_path(name)
        with open(path, "w") as fh:
            json.dump(trace, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path)}  (cycles={trace['cycles']})")
    for name in CHECKPOINTS:
        trace = build_checkpoint_trace(name)
        path = golden_path(name)
        with open(path, "w") as fh:
            json.dump(trace, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path)}  (final_cycles={trace['final_cycles']})")
    path = golden_path("reference_digests")
    with open(path, "w") as fh:
        json.dump(build_reference_digests(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
