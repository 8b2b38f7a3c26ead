"""Parallel run engine for bulk simulation (paper §7 methodology).

The §7 experiments are "run the cycle-level simulator over many
architectural parameter points and collect measurements".  Every run is
independent — a fresh :class:`~repro.core.system.EclipseSystem`, a fresh
graph, no shared state — so the sweep is embarrassingly parallel.  This
module is the engine that exploits that: declare each run as a
:class:`RunSpec` (a picklable *description* — a module-level factory
plus keyword arguments), hand the list to a :class:`ParallelRunner`,
and get back a :class:`RunReport` whose per-run :class:`RunResult`
entries are **keyed by spec index, never by completion order**.

Determinism contract
--------------------
The deterministic portion of a report (``RunReport.to_dict()`` without
timing) is byte-identical for the same spec list at any ``jobs`` count:

* each run builds its own system/graph inside the worker from the
  spec's factory — nothing leaks between runs;
* results are aggregated in spec order, not completion order;
* wall-clock measurements live in a separate ``timing`` block that is
  excluded from the canonical JSON unless explicitly requested.

Runs execute on :class:`_Worker` processes, which the sweep service
(and with it every checkpointed sweep) shares: a ``RunSpec.timeout``
kills the attempt's worker, and a worker that dies fails only its own
run.
Workloads whose specs cannot be pickled (closures, lambdas, bound
state) transparently fall back to in-process serial execution; the
report records the fallback in ``notes``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import multiprocessing.connection
import os
import pickle
import queue
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "RunSpec",
    "RunResult",
    "RunReport",
    "ParallelRunner",
    "run_specs",
    "resolve_factory",
]


Factory = Union[Callable[..., tuple], str]


def resolve_factory(factory: Factory) -> Callable[..., tuple]:
    """Resolve a factory reference to a callable.

    Accepts a callable (must be picklable by reference for the parallel
    path, i.e. a module-level function) or a dotted string
    ``"package.module:function"``.
    """
    if callable(factory):
        return factory
    if isinstance(factory, str):
        if ":" not in factory:
            raise ValueError(
                f"string factory must be 'module:function', got {factory!r}"
            )
        mod_name, func_name = factory.split(":", 1)
        mod = importlib.import_module(mod_name)
        try:
            return getattr(mod, func_name)
        except AttributeError:
            raise ValueError(f"module {mod_name!r} has no attribute {func_name!r}")
    raise TypeError(f"factory must be callable or 'module:function', got {factory!r}")


@dataclass(frozen=True)
class RunSpec:
    """A picklable description of one independent simulation run.

    ``factory(**kwargs)`` must return a ``(system, graph)`` pair — the
    system not yet configured — *or* a bare already-configured system.
    It is called inside the worker process, so it must be a module-level
    function (or a ``"module:function"`` string); the graph and its
    kernels never cross the process boundary, only the description
    does.
    """

    factory: Factory
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    label: str = ""
    #: per-run wall-clock timeout in seconds (None = runner default)
    timeout: Optional[float] = None
    #: extra attempts after a failure/timeout (None = runner default)
    retries: Optional[int] = None

    def describe(self) -> str:
        if self.label:
            return self.label
        name = self.factory if isinstance(self.factory, str) else getattr(
            self.factory, "__name__", repr(self.factory)
        )
        return f"{name}({', '.join(f'{k}={v!r}' for k, v in self.kwargs.items())})"


@dataclass
class RunResult:
    """What one run produced.  Everything except ``wall_time`` and
    ``attempts`` is a pure function of the spec — the deterministic
    payload the regression/determinism tests compare."""

    index: int
    label: str
    ok: bool
    completed: bool = False
    cycles: int = 0
    #: "ExceptionType: message" when the run raised; None when ok
    error: Optional[str] = None
    #: deterministic counters (SystemResult.to_dict() minus histories)
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: sha256 over the sorted per-stream histories — lets callers check
    #: byte-identity against an oracle without shipping the bytes
    histories_sha256: Optional[str] = None
    #: the run exceeded its wall-clock budget and its worker was killed
    #: (distinguishable from ``crashed`` so supervisor policies can
    #: treat hangs and deaths differently)
    timed_out: bool = False
    #: the worker process died (signal, hard exit) — ``error`` carries
    #: its exit code
    crashed: bool = False
    #: observability tier the run recorded at ("off".."full"); below
    #: "full" there are no byte histories, so ``histories_sha256`` is
    #: None — the tier in the result makes that unmistakable.  On
    #: failure, the tier the spec *asked* for.
    obs_level: str = "full"
    #: wall-clock seconds for the successful (or last) attempt
    wall_time: float = 0.0
    #: 1 for a first-try success; >1 after retries
    attempts: int = 1

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "index": self.index,
            "label": self.label,
            "ok": self.ok,
            "completed": self.completed,
            "cycles": self.cycles,
            "error": self.error,
            "metrics": self.metrics,
            "histories_sha256": self.histories_sha256,
            "timed_out": self.timed_out,
            "crashed": self.crashed,
            "obs_level": self.obs_level,
        }
        if include_timing:
            out["wall_time"] = self.wall_time
            out["attempts"] = self.attempts
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        """Rebuild a result from its dict form (the inverse of
        :meth:`to_dict`; timing fields default to zero when the dict
        was serialized without them)."""
        return cls(
            index=data["index"],
            label=data["label"],
            ok=data["ok"],
            completed=data.get("completed", False),
            cycles=data.get("cycles", 0),
            error=data.get("error"),
            metrics=dict(data.get("metrics", {})),
            histories_sha256=data.get("histories_sha256"),
            timed_out=data.get("timed_out", False),
            crashed=data.get("crashed", False),
            obs_level=data.get("obs_level", "full"),
            wall_time=data.get("wall_time", 0.0),
            attempts=data.get("attempts", 1),
        )


@dataclass
class RunReport:
    """Aggregated results of one engine invocation, in spec order."""

    results: List[RunResult]
    jobs: int
    #: wall-clock seconds for the whole batch
    wall_time: float = 0.0
    #: sum of per-run wall times — the serial-time estimate the speedup
    #: is computed against
    serial_time_estimate: float = 0.0
    #: execution notes (e.g. the non-picklable serial fallback)
    notes: List[str] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Estimated speedup over a serial run of the same specs."""
        if self.wall_time <= 0:
            return 1.0
        return self.serial_time_estimate / self.wall_time

    @property
    def failures(self) -> List[RunResult]:
        return [r for r in self.results if not r.ok]

    def metrics(self, include_timing: bool = False) -> "MetricsRegistry":
        """The sweep's health/progress feed as a typed metrics registry.

        The deterministic instruments (run outcome counters, the cycle
        histogram) are pure functions of the results, so the canonical
        metrics block stays byte-identical at any ``jobs`` count and
        under the resilience supervisor.  Wall-clock instruments only
        exist when ``include_timing`` — same switch as the timing
        block.  Names are stable; the catalogue lives in
        ``docs/observability.md``.
        """
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("runs.total").inc(len(self.results))
        reg.counter("runs.ok").inc(sum(1 for r in self.results if r.ok))
        reg.counter("runs.failed").inc(len(self.failures))
        reg.counter("runs.completed").inc(
            sum(1 for r in self.results if r.completed)
        )
        reg.counter("runs.timed_out").inc(
            sum(1 for r in self.results if r.timed_out)
        )
        reg.counter("runs.crashed").inc(
            sum(1 for r in self.results if r.crashed)
        )
        reg.counter("cycles.total").inc(sum(r.cycles for r in self.results))
        cycles = reg.histogram("run.cycles")
        for r in self.results:
            cycles.observe(r.cycles)
        if include_timing:
            wall = reg.histogram("run.wall_time", round_to=4)
            for r in self.results:
                wall.observe(r.wall_time)
            reg.counter("runs.attempts").inc(
                sum(r.attempts for r in self.results)
            )
            reg.counter("runs.retried").inc(
                sum(1 for r in self.results if r.attempts > 1)
            )
            reg.gauge("runner.jobs").set(self.jobs)
            reg.gauge("runner.wall_time").set(round(self.wall_time, 4))
            reg.gauge("runner.speedup").set(round(self.speedup, 3))
        return reg

    def to_dict(self, include_timing: bool = False) -> dict:
        """JSON-ready report.  Without ``include_timing`` the output is
        byte-identical for the same specs at any ``jobs`` count."""
        out: Dict[str, Any] = {
            "schema": "repro.runner/1",
            "runs": [r.to_dict(include_timing=include_timing) for r in self.results],
            "summary": {
                "total": len(self.results),
                "ok": sum(1 for r in self.results if r.ok),
                "failed": len(self.failures),
                "total_cycles": sum(r.cycles for r in self.results),
            },
            "metrics": self.metrics(include_timing=include_timing).to_dict(),
        }
        if include_timing:
            out["timing"] = {
                "jobs": self.jobs,
                "wall_time": self.wall_time,
                "serial_time_estimate": self.serial_time_estimate,
                "speedup": self.speedup,
                "notes": list(self.notes),
            }
        return out

    def to_json(self, include_timing: bool = False) -> str:
        """Canonical serialization: sorted keys, two-space indent,
        trailing newline — stable bytes for regression diffing."""
        return json.dumps(self.to_dict(include_timing=include_timing),
                          indent=2, sort_keys=True) + "\n"

    def write(self, path: str, include_timing: bool = False) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json(include_timing=include_timing))


# ---------------------------------------------------------------------------
# worker
# ---------------------------------------------------------------------------
def _histories_digest(histories: Mapping[str, bytes]) -> str:
    h = sha256()
    for name in sorted(histories):
        h.update(name.encode())
        h.update(b"\x00")
        h.update(histories[name])
        h.update(b"\x01")
    return h.hexdigest()


def _ok_result(index: int, label: str, system, result, wall_time: float) -> RunResult:
    """The result of a run that returned.  Everything but ``wall_time``
    is a pure function of the spec, wherever the run executed — the
    runner, a checkpointed worker or the sweep service."""
    metrics = result.to_dict()
    metrics.pop("histories", None)
    obs = getattr(system, "obs", None)
    if obs is not None and system.sampler is not None:
        # deterministic sampling summary (sample counts are a pure
        # function of the schedule, which is level-invariant)
        metrics["sampling"] = {
            "interval": system.sampler.interval,
            "samples": max(
                (len(s) for s in system.sampler.utilization.values()),
                default=0,
            ),
        }
    return RunResult(
        index=index,
        label=label,
        ok=True,
        completed=result.completed,
        cycles=result.cycles,
        metrics=metrics,
        # below "full" there are no byte histories to digest — None
        # keeps the absence explicit instead of digesting empty streams
        histories_sha256=(
            _histories_digest(result.histories)
            if obs is None or obs.histories
            else None
        ),
        wall_time=wall_time,
        obs_level=str(obs) if obs is not None else "full",
    )


def _failed_result(
    index: int,
    label: str,
    kwargs: Mapping[str, Any],
    error: Union[str, Exception],
    **fields: Any,
) -> RunResult:
    """The result of a run that failed — raised, crashed, hung or
    timed out — at the observability tier its spec asked for (the run
    may never have built a system).  An exception ``error`` becomes
    "Type: message" plus its traceback; call it inside the handler."""
    if isinstance(error, Exception):
        fields.setdefault("metrics", {"traceback": traceback.format_exc(limit=8)})
        error = f"{type(error).__name__}: {error}"
    return RunResult(
        index=index,
        label=label,
        ok=False,
        error=error,
        obs_level=str(dict(kwargs).get("obs_level", "full")),
        **fields,
    )


def _execute_spec(index: int, spec: RunSpec) -> RunResult:
    """Build, configure and run one spec.  Runs inside the worker
    process (or inline on the serial path); never raises — failures
    come back as ``ok=False`` results so one bad point cannot take the
    whole sweep down."""
    label = spec.describe()
    start = time.perf_counter()
    try:
        factory = resolve_factory(spec.factory)
        built = factory(**dict(spec.kwargs))
        if isinstance(built, tuple):
            system, graph = built
            system.configure(graph)
        else:
            system = built
        result = system.run()
        return _ok_result(index, label, system, result, time.perf_counter() - start)
    except Exception as e:  # noqa: BLE001 — the report carries the error
        return _failed_result(index, label, spec.kwargs, e,
                              wall_time=time.perf_counter() - start)


#: in a worker process, its pipe to the parent
_parent_conn = None

#: start-ups take turns: a process forked while another worker starts
#: would inherit the write end of its sentinel and hide its death
_START_LOCK = threading.Lock()


def report_progress() -> None:
    """Reset the ``heartbeat`` clock of the :meth:`_Worker.call` this
    process is running; a no-op outside a worker process."""
    if _parent_conn is not None:
        _parent_conn.send(("progress", None))


def _serve(conn) -> None:
    """A worker's main loop: run each ``(fn, args)`` sent and reply
    with its value, until the stop message ``None``."""
    global _parent_conn, _START_LOCK
    _parent_conn, _START_LOCK = conn, threading.Lock()  # fork copied it held
    parent = os.getppid()
    with contextlib.suppress(EOFError):  # the parent closed the pipe
        while os.getppid() == parent:  # an orphan is reparented: it stops
            if conn.poll(1.0):
                call = conn.recv()
                if call is None:
                    return
                conn.send(("done", call[0](*call[1])))


class _Worker:
    """The one owner of a worker process, which runs one :meth:`call`
    at a time.  A call that times out or hangs has the process killed;
    the next call starts a fresh one.  A death shows on the process
    sentinel and a stop is an explicit message, never EOF on the pipe:
    a worker forked later holds copies of earlier workers' pipe ends."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._proc = self._conn = None
        self._busy = self._closed = False

    def start(self) -> None:
        """Start the process unless it is running, from this thread."""
        with self._lock:
            if self._closed:
                raise RuntimeError("worker is closed")
            if self._proc is None:
                with _START_LOCK:
                    conn, child = multiprocessing.Pipe()
                    proc = multiprocessing.Process(target=_serve, args=(child,), daemon=True)
                    proc.start()
                    child.close()
                self._proc, self._conn = proc, conn

    def call(self, fn: Callable[..., Any], args: tuple, timeout: Optional[float] = None,
             heartbeat: Optional[float] = None) -> Tuple[str, Any]:
        """Run ``fn(*args)`` in the worker.  Returns ``("done", value)``,
        or the process's exit code with ``"timeout"`` after ``timeout``
        seconds, ``"hang"`` after ``heartbeat`` seconds without
        :func:`report_progress`, or ``"crash"`` when it died."""
        with self._lock:
            self.start()
            self._busy = True
            proc, conn = self._proc, self._conn
        outcome: Tuple[str, Any] = ("crash", None)
        try:
            conn.send((fn, args))
            alive = time.monotonic()
            deadline = None if timeout is None else alive + timeout
            while True:
                limits = [(t, kind) for t, kind in ((deadline, "timeout"),
                          (heartbeat and alive + heartbeat, "hang")) if t]
                due = min(limits, default=None)
                ready = multiprocessing.connection.wait(
                    [conn, proc.sentinel], due and max(0.0, due[0] - time.monotonic()))
                if conn not in ready:  # the reply is read before a death
                    if not ready:
                        outcome = (due[1], None)
                    break
                kind, value = conn.recv()
                if kind == "done":
                    outcome = (kind, value)
                    break
                alive = time.monotonic()
        except (EOFError, OSError):  # the pipe broke: the process died
            pass
        finally:
            with self._lock:
                self._busy = False
                if outcome[0] != "done":
                    outcome = (outcome[0], self._stop(kill=True))
        return outcome

    def _stop(self, kill: bool) -> Optional[int]:
        """Stop and reap the process (lock held); returns its exit code."""
        proc, conn, self._proc, self._conn = self._proc, self._conn, None, None
        if proc is None:
            return None
        if not kill:
            with contextlib.suppress(OSError):
                conn.send(None)
            proc.join(1.0)
        proc.kill()  # a no-op once the process has been reaped
        proc.join()
        code = proc.exitcode
        proc.close()
        conn.close()
        return code

    def close(self) -> None:
        """Stop the process, busy or not; no process starts after this.
        A busy worker is killed, and its blocked :meth:`call` reaps it."""
        with self._lock:
            self._closed = True
            if self._busy:
                self._proc.kill()
            else:
                self._stop(kill=False)


def run_attempts(worker: Optional[_Worker], index: int, spec: RunSpec,
                 timeout: Optional[float], retries: int) -> RunResult:
    """Run ``spec`` until it succeeds or ``retries`` more attempts have
    failed.  On ``worker`` an attempt is killed at ``timeout`` seconds;
    ``worker=None`` runs attempts in-process, where no timeout holds."""
    for attempts in range(1, retries + 2):
        if worker is None:
            result = _execute_spec(index, spec)
        else:
            outcome, value = worker.call(_execute_spec, (index, spec), timeout=timeout)
            timed_out = outcome == "timeout"
            result = value if outcome == "done" else _failed_result(
                index, spec.describe(), spec.kwargs,
                f"TimeoutError: run exceeded {timeout:g}s" if timed_out
                else f"WorkerCrashed: exit code {value!r}",
                timed_out=timed_out, crashed=not timed_out,
                wall_time=timeout if timed_out else 0.0,
            )
        if result.ok:
            break
    result.attempts = attempts
    return result


def _map_workers(fn: Callable[[Optional[_Worker], Any], Any], items: Sequence,
                 workers: int) -> list:
    """``[fn(worker, item) for item in items]`` on ``workers`` worker
    processes, each taking the next item when it is free; ``workers=0``
    runs every item in-process with ``worker=None``."""
    if workers == 0:
        return [fn(None, item) for item in items]
    pool = [_Worker() for _ in range(workers)]
    idle: "queue.SimpleQueue[_Worker]" = queue.SimpleQueue()

    def run(item: Any) -> Any:
        worker = idle.get()
        try:
            return fn(worker, item)
        finally:
            idle.put(worker)

    with ThreadPoolExecutor(workers) as threads:
        try:
            for worker in pool:
                worker.start()  # fork here, before any dispatch thread exists
                idle.put(worker)
            return list(threads.map(run, items))
        finally:
            for worker in pool:
                worker.close()


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------
class ParallelRunner:
    """Fans independent :class:`RunSpec` runs out over worker processes.

    ``jobs`` defaults to ``os.cpu_count()``; ``jobs=1`` runs everything
    in-process (no worker, no pickling requirement) unless a run has a
    timeout, which needs a worker the runner can kill.  ``timeout`` and
    ``retries`` are per-run defaults that individual specs may
    override.  A run that times out or fails is retried up to its retry
    budget; a run that exhausts it is reported as a failure, not raised.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        timeout: Optional[float] = None,
        retries: int = 0,
    ):
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[RunSpec]) -> RunReport:
        """Execute every spec; results come back in spec order."""
        specs = list(specs)
        notes: List[str] = []
        start = time.perf_counter()
        workers = min(self.jobs, len(specs))
        if workers <= 1 and all(self._budget(s)[0] is None for s in specs):
            workers = 0
        elif workers:
            unpicklable = self._first_unpicklable(specs)
            if unpicklable is not None:
                notes.append(
                    f"serial fallback: spec {unpicklable[0]} "
                    f"({unpicklable[1]}) is not picklable"
                )
                workers = 0

        def attempt(worker: Optional[_Worker], i: int) -> RunResult:
            return run_attempts(worker, i, specs[i], *self._budget(specs[i]))

        results = _map_workers(attempt, range(len(specs)), workers)
        return RunReport(
            results=results,
            jobs=self.jobs,
            wall_time=time.perf_counter() - start,
            serial_time_estimate=sum(r.wall_time for r in results),
            notes=notes,
        )

    # ------------------------------------------------------------------
    def _budget(self, spec: RunSpec) -> Tuple[Optional[float], int]:
        timeout = spec.timeout if spec.timeout is not None else self.timeout
        retries = spec.retries if spec.retries is not None else self.retries
        return timeout, retries

    @staticmethod
    def _first_unpicklable(specs: Sequence[RunSpec]) -> Optional[Tuple[int, str]]:
        for i, spec in enumerate(specs):
            try:
                pickle.dumps(spec)
            except Exception:
                return i, spec.describe()
        return None


def run_specs(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
) -> RunReport:
    """One-call convenience wrapper around :class:`ParallelRunner`."""
    return ParallelRunner(jobs=jobs, timeout=timeout, retries=retries).run(specs)
