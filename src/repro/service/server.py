"""The asyncio sweep service: queue, workers, single-flight, cache.

:class:`SweepService` is the long-running core that turns the repo's
batch machinery (:class:`~repro.runner.ParallelRunner` semantics,
:class:`~repro.resilience.Supervisor` execution) into a traffic-serving
system:

* **submit** computes the request's canonical cache key
  (:func:`repro.service.cachekey.cache_key`) and serves a verified
  store hit without simulating anything;
* a miss registers a **single flight**: concurrent identical requests
  — no matter how many clients — attach to the same in-flight future
  and exactly one execution happens (``tests/service/
  test_single_flight.py`` proves exactly-one under concurrency);
* novel requests queue with a **priority** (lower runs earlier,
  FIFO within a priority) and run on one worker process per execution
  slot under the spec's ``timeout`` and ``retries``; with a
  ``checkpoint_interval`` each execution checkpoints, restarts from
  its snapshots and warm-starts recomputations (see
  :mod:`repro.service.warmstart`);
* results are canonical deterministic bytes
  (:func:`repro.service.store.result_payload`): a cache hit is
  byte-identical to the cold run, and a batch submitted through the
  service reassembles into a :class:`~repro.runner.RunReport` that is
  byte-identical to a plain runner's at any jobs count.

Failed runs resolve every waiter with the failure result but are
**never cached** — failures caused by infrastructure (a crashed
worker, an exhausted restart budget) are not pure functions of the
spec, so caching them would poison the key.

Observability: the service's :class:`~repro.obs.metrics.
MetricsRegistry` carries the cache counters (``service.cache.hits`` /
``.misses`` / ``.dedup_inflight``), queue instruments
(``service.queue.depth`` gauge, ``service.queue.wait_us`` histogram),
execution counters, and the folded supervisor health of supervised
runs; the :class:`~repro.obs.spans.SpanRecorder` records a queue-wait
span and an execution span per flight plus cache instants, exported as
Chrome-trace JSON like every other timeline in the repo.  All of it is
wall-clock and none of it can reach a cached payload.

The wire frontends (:func:`serve_unix`, :func:`serve_stdio`) speak the
newline-delimited JSON protocol of :mod:`repro.service.protocol` —
``repro serve`` / ``repro submit`` on the CLI, no dependencies beyond
the standard library.
"""

from __future__ import annotations

import asyncio
import itertools
import shutil
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.resilience.supervisor import run_checkpointed
from repro.runner import (RunReport, RunResult, RunSpec, _execute_spec, _failed_result,
                          _Worker, run_attempts)
from repro.service import protocol
from repro.service.cachekey import CacheKeyError, cache_key
from repro.service.store import ResultStore, payload_result, result_payload
from repro.service.warmstart import checkpoint_cycle, has_checkpoint

__all__ = ["ServiceError", "ServiceResponse", "SweepService",
           "serve_unix", "serve_stdio"]


class ServiceError(RuntimeError):
    """Service-level misuse or lifecycle failure."""


@dataclass
class ServiceResponse:
    """What one submission got back: the served bytes plus provenance."""

    key: str
    payload: bytes
    #: "hit" (served from the store), "miss" (this submission triggered
    #: the execution), or "dedup" (attached to an in-flight execution)
    cache: str
    ok: bool = True

    @property
    def result(self) -> RunResult:
        """The payload parsed back into a (fresh) RunResult."""
        return payload_result(self.payload)

    @property
    def payload_sha256(self) -> str:
        import hashlib

        return hashlib.sha256(self.payload).hexdigest()


@dataclass
class _Outcome:
    payload: bytes
    ok: bool


@dataclass
class _Flight:
    key: str
    spec: RunSpec
    priority: int
    seq: int
    future: "asyncio.Future[_Outcome]"
    enqueued_us: int
    subscribers: List[Callable[[dict], None]] = field(default_factory=list)


class SweepService:
    """Priority queue + bounded workers + single-flight result cache.

    ``jobs`` bounds concurrent executions: each slot owns one worker
    process, killed at a spec's ``timeout``.  ``checkpoint_interval``
    (cycles) checkpoints every execution into the store's per-key
    directory and restarts a crashed, hung or timed-out attempt from
    there (warm-starting recomputations, too).  ``use_process_pool=
    False`` runs plain requests in threads — handy for tests, but a
    thread cannot be killed, so no timeout holds there.

    Use as an async context manager, or call :meth:`start` /
    :meth:`close` explicitly.
    """

    def __init__(
        self,
        store: ResultStore,
        jobs: int = 2,
        checkpoint_interval: Optional[int] = None,
        max_restarts: int = 2,
        heartbeat_timeout: float = 30.0,
        use_process_pool: bool = True,
        span_capacity: int = 100_000,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
            )
        if heartbeat_timeout <= 0:
            raise ValueError(f"heartbeat_timeout must be > 0, got {heartbeat_timeout}")
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        self.store = store
        self.jobs = jobs
        self.checkpoint_interval = checkpoint_interval
        self.max_restarts = max_restarts
        self.heartbeat_timeout = heartbeat_timeout
        self.use_process_pool = use_process_pool
        self.metrics = MetricsRegistry()
        self.spans = SpanRecorder(capacity=span_capacity,
                                  process_name="repro.service")
        #: test hook, mirroring Supervisor.sabotage: applied to the
        #: FIRST attempt of the next checkpointed execution, then cleared
        self.sabotage: Optional[dict] = None
        self._queue: "asyncio.PriorityQueue[Tuple[int, int, _Flight]]" = (
            asyncio.PriorityQueue()
        )
        self._inflight: Dict[str, _Flight] = {}
        self._workers: List[asyncio.Task] = []
        self._procs: List[_Worker] = []
        self._seq = itertools.count()
        self.shutdown_requested = asyncio.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._workers:
            raise ServiceError("service already started")
        if self.use_process_pool or self.checkpoint_interval is not None:
            # forked on the loop's thread, before any execution thread
            self._procs = [_Worker() for _ in range(self.jobs)]
            for proc in self._procs:
                proc.start()
        self._workers = [
            asyncio.create_task(self._worker(i, proc), name=f"sweep-worker-{i}")
            for i, proc in enumerate(self._procs or [None] * self.jobs)
        ]

    async def close(self) -> None:
        for task in self._workers:
            task.cancel()
        # busy ones too: a cancelled task cannot stop its thread
        for proc in self._procs:
            proc.close()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        for flight in list(self._inflight.values()):
            if not flight.future.done():
                flight.future.set_result(_Outcome(
                    payload=result_payload(_failed_result(
                        0, flight.spec.describe(), flight.spec.kwargs,
                        "ServiceError: service closed before the run finished",
                    )),
                    ok=False,
                ))
        self._inflight.clear()

    async def __aenter__(self) -> "SweepService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    async def submit(
        self,
        spec: RunSpec,
        priority: int = 0,
        on_event: Optional[Callable[[dict], None]] = None,
    ) -> ServiceResponse:
        """Serve one request: store hit, in-flight attach, or enqueue.

        ``priority``: lower runs earlier; equal priorities run in
        submission order.  ``on_event`` (optional, synchronous)
        receives progress dicts: ``hit``/``joined``/``queued`` at
        submission, then ``started`` and ``finished`` from the worker.
        """
        key = cache_key(spec, self.checkpoint_interval)
        # the store check and the in-flight registration below run
        # without an await between them, so they are atomic on the
        # event loop: two identical submissions can never both miss
        # the in-flight table.
        payload = self.store.get(key)
        if payload is not None:
            self.metrics.counter("service.cache.hits").inc()
            self.spans.instant("cache_hit", "cache", "service", key=key[:12])
            if on_event is not None:
                on_event({"event": "hit", "key": key})
            return ServiceResponse(key=key, payload=payload, cache="hit")
        flight = self._inflight.get(key)
        if flight is not None:
            self.metrics.counter("service.cache.dedup_inflight").inc()
            self.spans.instant("dedup_join", "cache", "service", key=key[:12])
            if on_event is not None:
                flight.subscribers.append(on_event)
                on_event({"event": "joined", "key": key})
            # shield: a cancelled waiter must not cancel the shared
            # future out from under the other waiters
            outcome = await asyncio.shield(flight.future)
            return ServiceResponse(key=key, payload=outcome.payload,
                                   cache="dedup", ok=outcome.ok)
        self.metrics.counter("service.cache.misses").inc()
        flight = _Flight(
            key=key,
            spec=spec,
            priority=priority,
            seq=next(self._seq),
            future=asyncio.get_running_loop().create_future(),
            enqueued_us=self.spans.now(),
        )
        if on_event is not None:
            flight.subscribers.append(on_event)
        self._inflight[key] = flight
        self._queue.put_nowait((priority, flight.seq, flight))
        self.metrics.gauge("service.queue.depth").set(self._queue.qsize())
        self.metrics.histogram("service.queue.enqueued_depth").observe(
            self._queue.qsize()
        )
        self._emit(flight, {"event": "queued", "key": key,
                            "priority": priority})
        outcome = await asyncio.shield(flight.future)
        return ServiceResponse(key=key, payload=outcome.payload,
                               cache="miss", ok=outcome.ok)

    async def run_batch(
        self, specs: Sequence[RunSpec], priority: int = 0
    ) -> RunReport:
        """Submit a whole spec list and reassemble a RunReport whose
        deterministic payload is byte-identical to a plain
        :class:`~repro.runner.ParallelRunner` run of the same list —
        results in spec order, duplicates deduplicated behind the
        scenes but reported per position."""
        responses = await asyncio.gather(
            *(self.submit(spec, priority=priority) for spec in specs)
        )
        results: List[RunResult] = []
        for i, resp in enumerate(responses):
            result = resp.result
            result.index = i
            results.append(result)
        return RunReport(results=results, jobs=self.jobs)

    def stats(self) -> dict:
        """Deterministically-shaped health snapshot (values vary)."""
        return {
            "schema": protocol.STATS_SCHEMA,
            "jobs": self.jobs,
            "checkpoint_interval": self.checkpoint_interval,
            "queue_depth": self._queue.qsize(),
            "inflight": len(self._inflight),
            "metrics": self.metrics.to_dict(),
            "store": self.store.metrics.to_dict(),
            "spans": self.spans.summary(),
        }

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _emit(self, flight: _Flight, event: dict) -> None:
        for sub in flight.subscribers:
            try:
                sub(dict(event))
            except Exception:  # noqa: BLE001 — observers must not kill flights
                pass

    async def _worker(self, wid: int, proc: Optional[_Worker]) -> None:
        thread = f"worker-{wid}"
        while True:
            _prio, _seq, flight = await self._queue.get()
            self.metrics.gauge("service.queue.depth").set(self._queue.qsize())
            now = self.spans.now()
            self.spans.complete(
                "queue-wait", "queue", "queue",
                ts=flight.enqueued_us, dur=now - flight.enqueued_us,
                key=flight.key[:12], priority=flight.priority,
            )
            self.metrics.histogram("service.queue.wait_us").observe(
                max(0, now - flight.enqueued_us)
            )
            self._emit(flight, {"event": "started", "key": flight.key})
            span = self.spans.begin("execute", "execute", thread,
                                    key=flight.key[:12])
            result = await self._execute(flight, proc)
            self.spans.end(span, ok=result.ok)
            self.metrics.counter("service.executions").inc()
            payload = result_payload(result)
            if result.ok:
                self.store.put(flight.key, payload)
            else:
                # infrastructure failures are not pure functions of the
                # spec; caching them would poison the key
                self.metrics.counter("service.execution_failures").inc()
            # finished-event before set_result so streamed events stay
            # ordered ahead of the waiters' result lines
            self._emit(flight, {"event": "finished", "key": flight.key,
                                "ok": bool(result.ok)})
            del self._inflight[flight.key]
            flight.future.set_result(_Outcome(payload=payload, ok=bool(result.ok)))
            self._queue.task_done()

    async def _execute(self, flight: _Flight, proc: Optional[_Worker]) -> RunResult:
        """One execution, never raising: failures come back as
        ok=False results exactly like the batch runner's."""
        spec = flight.spec
        try:
            if self.checkpoint_interval is None:
                if proc is None:
                    return await asyncio.to_thread(_execute_spec, 0, spec)
                return await asyncio.to_thread(run_attempts, proc, 0, spec,
                                               spec.timeout, spec.retries or 0)
            directory = self.store.checkpoint_dir(flight.key)
            if has_checkpoint(directory):  # left by an earlier execution
                self.metrics.counter("service.warmstart.resumes").inc()
                self.spans.instant(
                    "warm_start", "cache", "service",
                    key=flight.key[:12], cycle=checkpoint_cycle(directory),
                )
            sabotage, self.sabotage = self.sabotage, None
            result = await self._run_checkpointed(proc, spec, directory, sabotage)
            if not result.ok and result.error.startswith("SnapshotError"):
                # a corrupt or stale checkpoint fails every restore:
                # discard it and compute from scratch, as the store
                # does with a corrupt entry
                self.metrics.counter("service.warmstart.discards").inc()
                shutil.rmtree(directory)
                directory = self.store.checkpoint_dir(flight.key)
                result = await self._run_checkpointed(proc, spec, directory, None)
            return result
        except asyncio.CancelledError:
            raise
        except Exception as e:  # noqa: BLE001 — the result carries it
            return _failed_result(0, spec.describe(), spec.kwargs, e)

    async def _run_checkpointed(self, proc: Optional[_Worker], spec: RunSpec,
                                directory: str, sabotage: Optional[dict]) -> RunResult:
        result, _notes, counts = await asyncio.to_thread(
            run_checkpointed, proc, 0, spec, directory,
            self.checkpoint_interval, self.heartbeat_timeout,
            self.max_restarts, sabotage=sabotage,
        )
        for name, value in sorted(counts.items()):
            self.metrics.counter(f"service.supervisor.{name}").inc(value)
        return result


# ----------------------------------------------------------------------
# wire frontends: newline-delimited JSON over a unix socket or stdio
# ----------------------------------------------------------------------
async def _handle_request(service: SweepService, req: Any,
                          send: Callable[[dict], None]) -> None:
    """Dispatch one parsed request; every path answers with exactly one
    terminal line (result/stats/pong/bye/error) plus optional streamed
    progress events."""
    if not isinstance(req, dict):
        send(protocol.error_response(None, "request must be a JSON object"))
        return
    rid = req.get("id")
    op = req.get("op")
    if op == "ping":
        send({"id": rid, "event": "pong"})
        return
    if op == "stats":
        send({"id": rid, "event": "stats", "stats": service.stats()})
        return
    if op == "shutdown":
        send({"id": rid, "event": "bye"})
        service.shutdown_requested.set()
        return
    if op == "submit":
        try:
            spec = protocol.spec_from_wire(req)
            priority = int(req.get("priority", 0))
        except (protocol.ProtocolError, TypeError, ValueError) as e:
            send(protocol.error_response(rid, str(e)))
            return
        on_event = None
        if req.get("stream"):
            def on_event(ev: dict, _rid=rid) -> None:
                ev["id"] = _rid
                send(ev)
        try:
            resp = await service.submit(spec, priority=priority,
                                        on_event=on_event)
        except CacheKeyError as e:
            send(protocol.error_response(rid, str(e)))
            return
        send(protocol.result_response(rid, resp))
        return
    send(protocol.error_response(rid, f"unknown op {op!r}"))


async def _serve_streams(service: SweepService, reader: asyncio.StreamReader,
                         send: Callable[[dict], None]) -> None:
    """Read request lines until EOF; each request runs as its own task
    so submissions on one connection execute concurrently."""
    tasks: List[asyncio.Task] = []
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            if not line.strip():
                continue
            try:
                req = protocol.loads_line(line)
            except protocol.ProtocolError as e:
                send(protocol.error_response(None, str(e)))
                continue
            tasks.append(asyncio.create_task(
                _handle_request(service, req, send)
            ))
    finally:
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)


async def serve_unix(service: SweepService, path: str) -> asyncio.AbstractServer:
    """Serve the NDJSON protocol on a unix domain socket at ``path``."""

    async def handle(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        outbox: "asyncio.Queue[Optional[dict]]" = asyncio.Queue()

        async def pump() -> None:
            while True:
                obj = await outbox.get()
                if obj is None:
                    break
                writer.write(protocol.dumps_line(obj))
                await writer.drain()

        pump_task = asyncio.create_task(pump())
        try:
            await _serve_streams(service, reader, outbox.put_nowait)
        except asyncio.CancelledError:
            # loop/server teardown while the connection is open: exit
            # quietly (py3.11 streams logs cancelled handler tasks)
            pass
        finally:
            outbox.put_nowait(None)
            try:
                await pump_task
            except (asyncio.CancelledError, ConnectionError, OSError):
                pump_task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass

    return await asyncio.start_unix_server(handle, path=path)


async def serve_stdio(service: SweepService) -> None:
    """Serve the NDJSON protocol on stdin/stdout until EOF (one client,
    the parent process — no socket file needed)."""
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )

    def send(obj: dict) -> None:
        sys.stdout.buffer.write(protocol.dumps_line(obj))
        sys.stdout.buffer.flush()

    await _serve_streams(service, reader, send)
