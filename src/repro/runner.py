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

Workloads whose specs cannot be pickled (closures, lambdas, bound
state) transparently fall back to in-process serial execution; the
report records the fallback in ``notes``.
"""

from __future__ import annotations

import importlib
import json
import os
import pickle
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
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
    #: the run exceeded its wall-clock budget (the worker may still be
    #: computing; distinguishable from ``crashed`` so supervisor
    #: policies can treat hangs and deaths differently)
    timed_out: bool = False
    #: the worker process died (pool breakage, signal, hard exit) —
    #: ``error`` carries the exception repr
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
    runner, a supervised worker or the sweep service."""
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


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------
class ParallelRunner:
    """Fans independent :class:`RunSpec` runs out over a process pool.

    ``jobs`` defaults to ``os.cpu_count()``; ``jobs=1`` runs everything
    in-process (no pool, no pickling requirement).  ``timeout`` and
    ``retries`` are per-run defaults that individual specs may
    override.  A run that times out or fails is retried up to its retry
    budget; a run that exhausts it is reported as a failure, not
    raised.
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
        if self.jobs == 1 or len(specs) <= 1:
            results = self._run_serial(specs)
        else:
            unpicklable = self._first_unpicklable(specs)
            if unpicklable is not None:
                notes.append(
                    f"serial fallback: spec {unpicklable[0]} "
                    f"({unpicklable[1]}) is not picklable"
                )
                results = self._run_serial(specs)
            else:
                results = self._run_pool(specs)
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

    def _run_serial(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        results = []
        for i, spec in enumerate(specs):
            _timeout, retries = self._budget(spec)  # no preemption in-process
            result = _execute_spec(i, spec)
            attempts = 1
            while not result.ok and attempts <= retries:
                result = _execute_spec(i, spec)
                attempts += 1
            result.attempts = attempts
            results.append(result)
        return results

    def _run_pool(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        results: List[Optional[RunResult]] = [None] * len(specs)
        workers = min(self.jobs, len(specs))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {i: pool.submit(_execute_spec, i, spec) for i, spec in enumerate(specs)}
            attempts = {i: 1 for i in futures}
            # collect in submission order — aggregation never depends on
            # completion order
            pending = list(futures)
            while pending:
                i = pending.pop(0)
                spec = specs[i]
                timeout, retries = self._budget(spec)
                try:
                    result = futures[i].result(timeout=timeout)
                except FutureTimeoutError:
                    futures[i].cancel()
                    result = _failed_result(
                        i, spec.describe(), spec.kwargs,
                        f"TimeoutError: run exceeded {timeout:g}s",
                        timed_out=True,
                        wall_time=timeout or 0.0,
                    )
                except Exception as e:
                    # _execute_spec never raises, so anything here is
                    # infrastructure breakage: a worker process died
                    # (BrokenProcessPool), pickling failed, a pipe broke.
                    # The repr keeps exception detail a str() would lose.
                    result = _failed_result(
                        i, spec.describe(), spec.kwargs,
                        f"{type(e).__name__}: {e!r}",
                        crashed=True,
                    )
                if not result.ok and attempts[i] <= retries:
                    attempts[i] += 1
                    try:
                        futures[i] = pool.submit(_execute_spec, i, spec)
                    except Exception:
                        # a broken pool refuses new work; report the
                        # crash instead of letting submit() take the
                        # whole sweep down
                        result.attempts = attempts[i] - 1
                        result.crashed = True
                        results[i] = result
                        continue
                    pending.append(i)
                    continue
                result.attempts = attempts[i]
                results[i] = result
        return [r for r in results if r is not None]


def run_specs(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
) -> RunReport:
    """One-call convenience wrapper around :class:`ParallelRunner`."""
    return ParallelRunner(jobs=jobs, timeout=timeout, retries=retries).run(specs)
