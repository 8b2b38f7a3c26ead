"""Supervised sweep execution: checkpointed runs, crash recovery.

The :class:`~repro.runner.ParallelRunner` restarts a failed run *from
zero*; for long sweeps that wastes everything already simulated.  The
:class:`Supervisor` runs each :class:`~repro.runner.RunSpec` as a call
on the runner's worker processes (:class:`repro.runner._Worker`) that

1. advances the system ``checkpoint_interval`` cycles at a time,
2. runs the online invariant monitors at every boundary
   (:mod:`repro.resilience.monitors` — a corrupt run is *failed with a
   diagnosis*, never resumed),
3. writes an atomic, checksummed :class:`~repro.resilience.snapshot.
   SystemSnapshot` and reports progress over the worker's pipe, and
4. returns the final :class:`~repro.runner.RunResult`, which the
   supervisor writes to the directory.

An attempt that crashes, reports no progress for ``heartbeat_timeout``
seconds or outlives the spec's ``timeout`` is killed and resumes from
the last checkpoint on a fresh process, up to ``max_restarts`` times
(:func:`run_checkpointed`, which the sweep service shares).  Because
all progress lives in files, the *whole sweep* is equally resumable:
re-running with ``resume=True`` (CLI ``--resume <dir>``) skips
completed runs and continues interrupted ones from their checkpoints.

Checkpoint directory layout::

    <dir>/sweep.json          sweep identity (schema, specs, digest)
    <dir>/run-000.ckpt.json   latest snapshot of run 0
    <dir>/run-000.result.json final RunResult of run 0

Reports match the plain runner bit for bit: a supervised sweep's
deterministic ``RunReport.to_dict()`` equals a ``ParallelRunner`` run
of the same specs — checkpointing is invisible in the results.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.resilience.monitors import MonitorSuite
from repro.resilience.snapshot import (
    SystemSnapshot,
    capture,
    decode_value,
    encode_value,
    factory_ref,
    restore,
)
from repro.runner import (RunReport, RunResult, RunSpec, _failed_result, _map_workers,
                          _ok_result, _Worker, report_progress)

__all__ = ["Supervisor", "SupervisorError", "SWEEP_SCHEMA"]

SWEEP_SCHEMA = "repro.supervisor/1"

#: default checkpoint cadence in simulated cycles; chosen so checkpoint
#: overhead stays well under 15% on the stock workloads (measured in
#: ``benchmarks/bench_resilience.py``)
DEFAULT_INTERVAL = 4096


class SupervisorError(RuntimeError):
    """Sweep-level misuse: bad directory, mismatched resume, ..."""


# ----------------------------------------------------------------------
# file layout
# ----------------------------------------------------------------------
def _sweep_path(d: str) -> str:
    return os.path.join(d, "sweep.json")


def _ckpt_path(d: str, i: int) -> str:
    return os.path.join(d, f"run-{i:03d}.ckpt.json")


def _result_path(d: str, i: int) -> str:
    return os.path.join(d, f"run-{i:03d}.result.json")


def _atomic_write_json(path: str, payload: dict) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def _spec_payloads(specs: Sequence[RunSpec]) -> List[dict]:
    return [
        {
            "factory": factory_ref(spec.factory),
            "kwargs": {k: encode_value(v) for k, v in sorted(spec.kwargs.items())},
            "label": spec.describe(),
        }
        for spec in specs
    ]


def _sweep_digest(payloads: List[dict]) -> str:
    import hashlib

    blob = json.dumps(payloads, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# one checkpointed run
# ----------------------------------------------------------------------
def _worker_main(
    index: int,
    payload: dict,
    directory: str,
    interval: int,
    monitor_ids: Optional[Tuple[str, ...]],
    sabotage: Optional[dict],
) -> RunResult:
    """One checkpointed attempt: restore-or-build, then an advance /
    monitor / checkpoint / progress loop until completion.

    ``sabotage`` is the test harness's crash injector:
    ``{"crash_after_checkpoints": k}`` hard-exits after the k-th
    checkpoint; ``{"hang": true}`` stops reporting progress without
    exiting.  Only a run's *first* attempt gets it, so the restarted
    attempt completes the run.
    """
    ckpt = _ckpt_path(directory, index)
    sabotage = sabotage or {}
    if sabotage.get("hang"):
        report_progress()
        while True:  # pragma: no cover - killed by the supervisor
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
        suite = MonitorSuite(monitor_ids)
        report_progress()
        checkpoints = 0
        finished = system.all_finished()
        while not finished:
            finished = system.advance(system.sim.now + interval)
            violations = suite.check(system)
            if violations:
                return _failed_result(
                    index, label, kwargs, f"InvariantViolation: {violations[0]}",
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
        return _ok_result(index, label, system, result, time.perf_counter() - start)
    except Exception as e:  # noqa: BLE001 — the result carries it
        return _failed_result(index, label, kwargs, e,
                              wall_time=time.perf_counter() - start)


def run_checkpointed(
    worker: _Worker, index: int, spec: RunSpec, directory: str, interval: int,
    heartbeat_timeout: float, max_restarts: int,
    monitors: Optional[Tuple[str, ...]] = None, sabotage: Optional[dict] = None,
) -> Tuple[RunResult, List[str], Dict[str, int]]:
    """Run ``spec`` on ``worker``, checkpointing into ``directory``
    every ``interval`` cycles and resuming from the checkpoint there if
    one exists.  An attempt that crashes, reports no progress for
    ``heartbeat_timeout`` seconds or exceeds ``spec.timeout`` is
    killed and restarts from the last checkpoint, up to
    ``max_restarts`` times.  Returns the result, one note per restart
    and the ``worker_*`` event counts, for the caller to merge."""
    payload, timeout = _spec_payloads([spec])[0], spec.timeout
    args = (index, payload, directory, interval, monitors)
    notes: List[str] = []
    counts = {"worker_restarts": 0}
    while True:
        restarts = counts["worker_restarts"]
        outcome, value = worker.call(
            _worker_main, args + (None if restarts else sabotage,),
            timeout=timeout, heartbeat=heartbeat_timeout,
        )
        if outcome == "done":
            return value, notes, counts
        if outcome == "crash":
            event, cause = "worker_crashes", f"worker died (exit {value!r})"
            error, flag = f"WorkerCrashed: exit code {value!r}", "crashed"
        elif outcome == "hang":
            event = "worker_hangs"
            cause = f"worker hung (heartbeat >{heartbeat_timeout:g}s)"
            error, flag = f"WorkerHung: no heartbeat for {heartbeat_timeout:g}s", "timed_out"
        else:
            event, cause = "worker_timeouts", f"worker timed out (>{timeout:g}s)"
            error, flag = f"TimeoutError: run exceeded {timeout:g}s", "timed_out"
        counts[event] = counts.get(event, 0) + 1
        if restarts >= max_restarts:
            return _failed_result(
                index, payload["label"], spec.kwargs,
                f"{error} after {restarts} restart(s)", **{flag: True},
            ), notes, counts
        counts["worker_restarts"] += 1
        notes.append(f"run {index}: {cause}, restart {restarts + 1} from checkpoint")


# ----------------------------------------------------------------------
# the supervisor
# ----------------------------------------------------------------------
class Supervisor:
    """Crash-tolerant sweep executor over a checkpoint directory."""

    def __init__(
        self,
        checkpoint_dir: str,
        interval: int = DEFAULT_INTERVAL,
        jobs: int = 1,
        heartbeat_timeout: float = 30.0,
        max_restarts: int = 2,
        monitors: Optional[Sequence[str]] = None,
    ):
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if heartbeat_timeout <= 0:
            raise ValueError(f"heartbeat_timeout must be > 0, got {heartbeat_timeout}")
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        self.checkpoint_dir = checkpoint_dir
        self.interval = interval
        self.jobs = jobs
        self.heartbeat_timeout = heartbeat_timeout
        self.max_restarts = max_restarts
        self.monitors = tuple(monitors) if monitors is not None else None
        if self.monitors is not None:
            MonitorSuite(self.monitors)  # validate ids here, not in a worker
        #: test hook: run index -> sabotage dict for the FIRST attempt of
        #: that run (crash_after_checkpoints / hang); restarts run
        #: clean, which is exactly what the recovery tests need
        self.sabotage: Dict[int, dict] = {}
        #: the supervisor's own health feed (worker lifecycle, restart
        #: causes).  Deliberately NOT part of the RunReport: the
        #: report's deterministic payload must equal a plain
        #: ParallelRunner's bit for bit, and restart counts are
        #: anything but deterministic.  Read it after run() — e.g. the
        #: CLI prints it with --verbose; a sweep service would poll it.
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[RunSpec], resume: bool = False) -> RunReport:
        """Execute (or resume) the sweep; results come back in spec
        order, deterministic payload identical to a plain runner's."""
        specs = list(specs)
        d = self.checkpoint_dir
        os.makedirs(d, exist_ok=True)
        payloads = _spec_payloads(specs)
        digest = _sweep_digest(payloads)
        sweep_file = _sweep_path(d)
        if os.path.exists(sweep_file):
            with open(sweep_file, "r", encoding="utf-8") as fh:
                existing = json.load(fh)
            if existing.get("digest") != digest:
                raise SupervisorError(
                    f"checkpoint dir {d!r} holds a different sweep "
                    f"(digest {existing.get('digest', '?')[:12]} != "
                    f"{digest[:12]}); use a fresh directory or the "
                    f"original spec list"
                )
            if not resume:
                raise SupervisorError(
                    f"checkpoint dir {d!r} already holds this sweep; "
                    f"pass resume=True (CLI: --resume) to continue it"
                )
        else:
            if resume:
                raise SupervisorError(
                    f"nothing to resume: {sweep_file!r} does not exist"
                )
            _atomic_write_json(sweep_file, {
                "schema": SWEEP_SCHEMA,
                "digest": digest,
                "interval": self.interval,
                "specs": payloads,
            })

        start = time.perf_counter()
        notes: List[str] = []
        results: Dict[int, RunResult] = {}
        pending: List[int] = []
        for i in range(len(specs)):
            done = self._load_result(i)
            if done is not None:
                results[i] = done
                if resume:
                    notes.append(f"run {i}: already complete, skipped")
                    self.metrics.counter("supervisor.runs_resumed").inc()
            else:
                pending.append(i)
        self.metrics.counter("supervisor.runs_total").inc(len(specs))

        def supervise(worker: _Worker, i: int):
            outcome = run_checkpointed(
                worker, i, specs[i], d, self.interval, self.heartbeat_timeout,
                self.max_restarts, self.monitors, self.sabotage.get(i),
            )
            if not (outcome[0].crashed or outcome[0].timed_out):
                # a killed run is left for a resumed sweep to finish
                _atomic_write_json(_result_path(d, i),
                                   outcome[0].to_dict(include_timing=True))
            return outcome

        # merged in run order, after every dispatch thread has finished
        total_restarts = 0
        outcomes = _map_workers(supervise, pending, min(self.jobs, len(pending)))
        for i, (result, run_notes, counts) in zip(pending, outcomes):
            results[i] = result
            notes.extend(run_notes)
            total_restarts += counts["worker_restarts"]
            for name, n in sorted(counts.items()):
                self.metrics.counter(f"supervisor.{name}").inc(n)
        if total_restarts:
            notes.append(f"total worker restarts: {total_restarts}")
        self.metrics.counter("supervisor.workers_spawned").inc(len(pending) + total_restarts)
        self.metrics.counter("supervisor.runs_failed").inc(
            sum(1 for r in results.values() if not r.ok)
        )
        self.metrics.gauge("supervisor.wall_time").set(
            round(time.perf_counter() - start, 4)
        )
        ordered = [results[i] for i in range(len(specs))]
        return RunReport(
            results=ordered,
            jobs=self.jobs,
            wall_time=time.perf_counter() - start,
            serial_time_estimate=sum(r.wall_time for r in ordered),
            notes=notes,
        )

    # ------------------------------------------------------------------
    def _load_result(self, index: int) -> Optional[RunResult]:
        path = _result_path(self.checkpoint_dir, index)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None  # unreadable: redo the run
        return RunResult.from_dict(data)
