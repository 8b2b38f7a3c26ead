"""Checkpointed execution of one run: crash, hang and timeout recovery.

The :class:`~repro.runner.ParallelRunner` restarts a failed run *from
zero*; for long runs that wastes everything already simulated.
:func:`run_checkpointed` runs one :class:`~repro.runner.RunSpec` as a
call on one of the runner's worker processes
(:class:`repro.runner._Worker`) that

1. advances the system ``interval`` cycles at a time,
2. runs every online invariant monitor at each boundary
   (:mod:`repro.resilience.monitors` — a corrupt run is *failed with a
   diagnosis*, never resumed),
3. writes an atomic, checksummed :class:`~repro.resilience.snapshot.
   SystemSnapshot` to ``<directory>/run-000.ckpt.json`` and reports
   progress over the worker's pipe, and
4. returns the final :class:`~repro.runner.RunResult`.

An attempt that crashes, reports no progress for ``heartbeat_timeout``
seconds or outlives the spec's ``timeout`` is killed and resumes from
the last checkpoint on a fresh process, up to ``max_restarts`` times.
A later call on the same directory — after the whole process was
killed — resumes from the checkpoint it finds there.

The sweep service (:class:`repro.service.SweepService`) runs every
execution this way when it has a ``checkpoint_interval``, in one
checkpoint directory per cache key; that is the one crash-tolerant
sweep path, which ``repro serve --checkpoint-interval`` and the CLI's
``--checkpoint-dir`` sweeps both use.  The result matches a plain run
bit for bit: checkpointing is invisible in the deterministic payload.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional, Tuple

from repro.resilience.monitors import MonitorSuite
from repro.resilience.snapshot import (
    SystemSnapshot,
    capture,
    decode_value,
    encode_value,
    factory_ref,
    restore,
)
from repro.runner import RunResult, RunSpec, _failed_result, _ok_result, _Worker, report_progress

#: default checkpoint cadence in simulated cycles; chosen so checkpoint
#: overhead stays well under 15% on the stock workloads (measured in
#: ``benchmarks/bench_resilience.py``)
DEFAULT_INTERVAL = 4096


def _spec_payload(spec: RunSpec) -> dict:
    return {
        "factory": factory_ref(spec.factory),
        "kwargs": {k: encode_value(v) for k, v in sorted(spec.kwargs.items())},
        "label": spec.describe(),
    }


def _worker_main(payload: dict, directory: str, interval: int,
                 sabotage: Optional[dict]) -> RunResult:
    """One checkpointed attempt: restore-or-build, then an advance /
    monitor / checkpoint / progress loop until completion.

    ``sabotage`` is the test harness's crash injector:
    ``{"crash_after_checkpoints": k}`` hard-exits after the k-th
    checkpoint; ``{"hang": true}`` stops reporting progress without
    exiting.  Only a run's *first* attempt gets it, so the restarted
    attempt completes the run.
    """
    ckpt = os.path.join(directory, "run-000.ckpt.json")
    sabotage = sabotage or {}
    if sabotage.get("hang"):
        report_progress()
        while True:  # pragma: no cover - killed by the parent
            time.sleep(0.5)
    if sabotage.get("crash_after_checkpoints") == 0:
        os._exit(17)  # crash before any checkpoint exists
    start = time.perf_counter()
    factory, label = payload["factory"], payload["label"]
    kwargs = {k: decode_value(v) for k, v in payload["kwargs"].items()}
    try:
        if os.path.exists(ckpt):
            system = restore(SystemSnapshot.load(ckpt))
        else:
            from repro.resilience.snapshot import _build

            system = _build(factory, kwargs)
        suite = MonitorSuite()
        report_progress()
        checkpoints = 0
        finished = system.all_finished()
        while not finished:
            finished = system.advance(system.sim.now + interval)
            violations = suite.check(system)
            if violations:
                return _failed_result(
                    0, label, kwargs, f"InvariantViolation: {violations[0]}",
                    metrics={"violations": [v.to_dict() for v in violations]},
                    wall_time=time.perf_counter() - start,
                )
            if finished:
                break  # a finished run needs finalizing, not a checkpoint
            if system.sim.peek() is None:
                break  # drained with unfinished tasks: run() will diagnose
            # Only quiescent boundaries are checkpointed: advance()
            # stopped *before* the events at this cycle, so a replayed
            # advance() to the same cycle reproduces the state exactly.
            capture(system, factory, kwargs).save(ckpt)
            system.resilience["checkpoints_written"] += 1
            report_progress()
            checkpoints += 1
            crash_after = sabotage.get("crash_after_checkpoints")
            if crash_after is not None and checkpoints >= crash_after:
                os._exit(17)
        result = system.run()
        return _ok_result(0, label, system, result, time.perf_counter() - start)
    except Exception as e:  # noqa: BLE001 — the result carries it
        return _failed_result(0, label, kwargs, e,
                              wall_time=time.perf_counter() - start)


def run_checkpointed(
    worker: _Worker, spec: RunSpec, directory: str, interval: int,
    heartbeat_timeout: float, max_restarts: int, sabotage: Optional[dict] = None,
) -> Tuple[RunResult, Dict[str, int]]:
    """Run ``spec`` on ``worker``, checkpointing into ``directory``
    every ``interval`` cycles and resuming from the checkpoint there if
    one exists.  An attempt that crashes, reports no progress for
    ``heartbeat_timeout`` seconds or exceeds ``spec.timeout`` is
    killed and restarts from the last checkpoint, up to
    ``max_restarts`` times.  Returns the result and the ``worker_*``
    event counts, for the caller to merge."""
    payload, timeout = _spec_payload(spec), spec.timeout
    counts = {"worker_restarts": 0}
    while True:
        restarts = counts["worker_restarts"]
        outcome, value = worker.call(
            _worker_main, (payload, directory, interval, None if restarts else sabotage),
            timeout=timeout, heartbeat=heartbeat_timeout,
        )
        if outcome == "done":
            return value, counts
        if outcome == "crash":
            event, flag, error = "worker_crashes", "crashed", f"WorkerCrashed: exit code {value!r}"
        elif outcome == "hang":
            event, flag, error = ("worker_hangs", "timed_out",
                                  f"WorkerHung: no heartbeat for {heartbeat_timeout:g}s")
        else:
            event, flag, error = ("worker_timeouts", "timed_out",
                                  f"TimeoutError: run exceeded {timeout:g}s")
        counts[event] = counts.get(event, 0) + 1
        if restarts >= max_restarts:
            return _failed_result(
                0, payload["label"], spec.kwargs,
                f"{error} after {restarts} restart(s)", **{flag: True},
            ), counts
        counts["worker_restarts"] += 1
