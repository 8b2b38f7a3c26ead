"""Eclipse system assembly: mapping an application onto an instance.

An :class:`EclipseSystem` is one instantiation of the architecture
template: a set of coprocessors with their shells, the shared SRAM,
read/write buses, off-chip port and message fabric.  ``configure``
plays the role of the CPU programming the stream and task tables over
the PI-bus (paper §5.4/§6): it allocates the stream buffers, populates
the tables and instantiates the kernels.  ``run`` executes until the
application completes (all tasks finished) and returns a
:class:`SystemResult` with full measurement data — including the
per-stream byte histories used to check the run against the functional
reference executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.core.buffer import CyclicBuffer
from repro.core.config import CoprocessorSpec, SystemParams
from repro.core.coprocessor import Coprocessor
from repro.core.messages import MessageFabric
from repro.core.shell import Shell
from repro.core.stream_table import RemoteRef, StreamRow
from repro.core.task_table import TaskRow
from repro.hw.bus import Bus, BusStats
from repro.hw.dram import OffChipMemory
from repro.hw.memory import OnChipMemory
from repro.kahn.graph import ApplicationGraph, GraphError
from repro.kahn.kernel import Kernel, KernelContext
from repro.obs.level import ObservabilityLevel
from repro.obs.tracer import SpanTracer
from repro.sim import FaultInjector, FaultPlan, Simulator
from repro.trace.sampler import Sampler

__all__ = ["EclipseSystem", "SystemResult", "StalledError", "DeadlockError"]


class StalledError(RuntimeError):
    """The simulation drained with unfinished tasks — a real deadlock
    (e.g. a buffer smaller than a packet, paper §2.2's coupling
    trade-off gone wrong)."""


class DeadlockError(StalledError):
    """The deadlock detector found unfinished tasks making zero
    progress (e.g. a fault schedule the recovery machinery cannot
    heal).  ``report`` names which tasks are blocked on which access
    points, so the run terminates with a diagnosis instead of
    hanging."""

    def __init__(self, message: str, report: str):
        super().__init__(message)
        self.report = report


@dataclass
class StreamReport:
    """Per-stream measurements for the result."""

    name: str
    buffer_size: int
    bytes_transferred: int = 0
    fill_mean: float = 0.0
    fill_max: float = 0.0
    denied_getspace: int = 0
    granted_getspace: int = 0
    putspace_messages: int = 0


@dataclass
class TaskReport:
    """Per-task measurements for the result."""

    name: str
    coprocessor: str
    steps_completed: int = 0
    steps_aborted: int = 0
    busy_cycles: int = 0
    compute_cycles: int = 0
    stall_cycles: int = 0


@dataclass
class SystemResult:
    """Everything one simulation run measured."""

    cycles: int
    completed: bool
    stalled_tasks: List[str]
    histories: Dict[str, bytes]
    tasks: Dict[str, TaskReport]
    streams: Dict[str, StreamReport]
    utilization: Dict[str, float]
    read_bus_utilization: float
    write_bus_utilization: float
    cache_hit_rate: Dict[str, float]
    messages_sent: int
    cpu_sync_ops: int
    cpu_busy_cycles: int
    #: fault-injection & recovery counters; None when no faults and no
    #: watchdog were active
    robustness: Optional[Dict[str, object]] = None
    #: lossy-ingest degradation accounting (concealed frames, silenced
    #: audio, erased packets); None unless a kernel reported any — so
    #: loss-free runs serialize exactly as before
    degradation: Optional[Dict[str, object]] = None

    def history(self, stream: str) -> bytes:
        return self.histories[stream]

    def to_dict(self, include_histories: bool = False) -> dict:
        """JSON-ready summary (histories hex-encoded when requested) —
        the machine-readable counterpart of the Figure 9 views."""
        out = {
            "cycles": self.cycles,
            "completed": self.completed,
            "stalled_tasks": list(self.stalled_tasks),
            "tasks": {
                name: {
                    "coprocessor": t.coprocessor,
                    "steps_completed": t.steps_completed,
                    "steps_aborted": t.steps_aborted,
                    "busy_cycles": t.busy_cycles,
                    "compute_cycles": t.compute_cycles,
                    "stall_cycles": t.stall_cycles,
                }
                for name, t in self.tasks.items()
            },
            "streams": {
                name: {
                    "buffer_size": s.buffer_size,
                    "bytes_transferred": s.bytes_transferred,
                    "fill_mean": s.fill_mean,
                    "fill_max": s.fill_max,
                    "denied_getspace": s.denied_getspace,
                    "granted_getspace": s.granted_getspace,
                    "putspace_messages": s.putspace_messages,
                }
                for name, s in self.streams.items()
            },
            "utilization": dict(self.utilization),
            "read_bus_utilization": self.read_bus_utilization,
            "write_bus_utilization": self.write_bus_utilization,
            "cache_hit_rate": dict(self.cache_hit_rate),
            "messages_sent": self.messages_sent,
            "cpu_sync_ops": self.cpu_sync_ops,
            "cpu_busy_cycles": self.cpu_busy_cycles,
        }
        if self.robustness is not None:
            out["robustness"] = dict(self.robustness)
        if self.degradation is not None:
            out["degradation"] = dict(self.degradation)
        if include_histories:
            out["histories"] = {k: v.hex() for k, v in self.histories.items()}
        return out


class EclipseSystem:
    """One Eclipse instance, ready to be configured and run."""

    def __init__(
        self,
        coprocessors: Sequence[CoprocessorSpec],
        params: Optional[SystemParams] = None,
        faults: Optional[FaultPlan] = None,
    ):
        if not coprocessors:
            raise ValueError("an Eclipse instance needs at least one coprocessor")
        names = [c.name for c in coprocessors]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate coprocessor names in {names}")
        self.params = params or SystemParams()
        #: the observability tier every recording hot path consults
        #: ("full" = byte-identical pre-contract behaviour)
        self.obs = ObservabilityLevel.parse(self.params.obs_level)
        #: observers attached via attach_sampler()/attach_tracer()
        self.sampler = None
        self.tracer = None
        self.specs: Dict[str, CoprocessorSpec] = {c.name: c for c in coprocessors}
        self.sim = Simulator()
        self.sram = OnChipMemory(self.params.sram_size)
        snoop_extra = (
            self.params.snoop_cycles_per_shell * len(coprocessors)
            if self.params.coherency == "snooping"
            else 0
        )
        self.read_bus = Bus(
            self.sim,
            "read_bus",
            width_bytes=self.params.bus_width,
            setup_latency=self.params.bus_setup_latency + snoop_extra,
        )
        self.write_bus = Bus(
            self.sim,
            "write_bus",
            width_bytes=self.params.bus_width,
            setup_latency=self.params.bus_setup_latency + snoop_extra,
        )
        self.dram = OffChipMemory(
            self.sim,
            width_bytes=self.params.dram_width,
            access_latency=self.params.dram_latency,
        )
        self.fault_injector: Optional[FaultInjector] = (
            FaultInjector(faults) if faults is not None and faults.any_faults() else None
        )
        self.fabric = MessageFabric(
            self.sim,
            latency=self.params.msg_latency,
            jitter=self.params.msg_jitter,
            seed=self.params.msg_seed,
            injector=self.fault_injector,
        )
        #: the centralized baseline's CPU: one FIFO-arbitrated unit that
        #: every sync operation occupies for ``central_sync_cycles``
        self._central_cpu: Optional[Bus] = (
            Bus(self.sim, "central_cpu", setup_latency=self.params.central_sync_cycles)
            if self.params.sync_mode == "centralized"
            else None
        )
        self.shells: Dict[str, Shell] = {
            c.name: Shell(self.sim, c.name, c.shell, self) for c in coprocessors
        }
        self.coprocessors: Dict[str, Coprocessor] = {}
        self.graph: Optional[ApplicationGraph] = None
        self._histories: Dict[str, bytearray] = {}
        self._row_stream: Dict[int, str] = {}
        self._configured = False
        self._unfinished_tasks = 0
        self._monitors_active = False
        #: observability counters for the resilience layer (checkpoint
        #: and monitor activity).  Deliberately NOT part of
        #: :meth:`export_state`: exporting state must not change the
        #: state digest, or interrupted and uninterrupted runs would
        #: diverge byte-wise.
        self.resilience: Dict[str, int] = {
            "state_exports": 0,
            "invariant_checks": 0,
            "invariant_violations": 0,
            "checkpoints_written": 0,
        }

    # ------------------------------------------------------------------
    # fault-injection hooks (no-ops without an injector)
    # ------------------------------------------------------------------
    def fault_corrupt_line(self, data: bytes) -> Optional[bytes]:
        """Maybe-corrupted copy of a cache-line fill, or None."""
        if self.fault_injector is None:
            return None
        return self.fault_injector.corrupt_line(data)

    def fault_coproc_stall(self, name: str) -> int:
        """Cycles coprocessor ``name`` must stall at this step boundary."""
        if self.fault_injector is None:
            return 0
        return self.fault_injector.coproc_stall(name, self.sim.now)

    # ------------------------------------------------------------------
    # completion tracking (used by watchdogs and the run-loop stop)
    # ------------------------------------------------------------------
    def task_finished(self, task: TaskRow) -> None:
        """A shell finished one task (called from Shell.finish_task)."""
        self._unfinished_tasks -= 1

    def all_finished(self) -> bool:
        """True once every configured task reached end-of-stream."""
        return self._configured and self._unfinished_tasks == 0

    # ------------------------------------------------------------------
    # centralized-sync baseline hook (no-op in distributed mode)
    # ------------------------------------------------------------------
    def central_sync_cost(self) -> Generator:
        """Occupy the central CPU for one sync operation (baseline
        mode); generator — ``yield from`` inside shell primitives."""
        if self._central_cpu is None:
            return
        # a zero-byte transfer occupies the CPU for its setup latency
        yield from self._central_cpu.transfer(0)

    def _cpu_stats(self) -> BusStats:
        """The central CPU's sync operations (``transactions``) and busy
        cycles; all 0 in distributed mode."""
        return self._central_cpu.stats if self._central_cpu is not None else BusStats()

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def configure(self, graph: ApplicationGraph, auto_map: bool = True) -> None:
        """Program the shells for ``graph`` (allocate buffers, fill
        stream/task tables, instantiate kernels, start coprocessors).

        Tasks with ``mapping=None`` are assigned round-robin over the
        coprocessors when ``auto_map`` — convenient for tests; real
        instances name the coprocessor per task (Figure 3).
        """
        if self._configured:
            raise RuntimeError("system already configured")
        graph.validate()
        self.graph = graph
        line_pad = max(spec.shell.cache_line for spec in self.specs.values())

        # ---- mapping ----
        mapping: Dict[str, str] = {}
        coproc_names = list(self.specs)
        rr = 0
        for tname, node in graph.tasks.items():
            if node.mapping is not None:
                if node.mapping not in self.specs:
                    raise GraphError(
                        f"task {tname!r} mapped to unknown coprocessor {node.mapping!r}; "
                        f"instance has {coproc_names}"
                    )
                mapping[tname] = node.mapping
            elif auto_map:
                mapping[tname] = coproc_names[rr % len(coproc_names)]
                rr += 1
            else:
                raise GraphError(f"task {tname!r} has no coprocessor mapping")
        self.mapping = mapping

        # ---- task tables ----
        task_rows: Dict[str, TaskRow] = {}
        for tname, node in graph.tasks.items():
            shell = self.shells[mapping[tname]]
            kernel = node.kernel_factory()
            if not isinstance(kernel, Kernel):
                raise GraphError(f"task {tname!r}: factory returned {type(kernel).__name__}")
            ctx = KernelContext(kernel.ports(), task_info=node.task_info, task=node.name)
            row = TaskRow(
                task_id=len(shell.task_table),
                name=tname,
                kernel=kernel,
                ctx=ctx,
                budget=node.budget,
            )
            shell.add_task(row)
            task_rows[tname] = row

        # ---- stream buffers and tables ----
        for sname, edge in graph.streams.items():
            padded = -(-edge.buffer_size // line_pad) * line_pad
            base = self.sram.alloc(padded, name=sname, align=line_pad)
            buffer = CyclicBuffer(base, edge.buffer_size)
            self._histories[sname] = bytearray()

            prod_shell = self.shells[mapping[edge.producer.task]]
            prod_row = StreamRow(
                stream=sname,
                task=edge.producer.task,
                port=edge.producer.port,
                is_producer=True,
                buffer=buffer,
                arm_space=[edge.buffer_size] * len(edge.consumers),
            )
            prod_id = prod_shell.add_stream_row(prod_row)
            task_rows[edge.producer.task].port_rows[edge.producer.port] = prod_id
            self._row_stream[id(prod_row)] = sname

            remotes_for_producer = []
            for arm, cons in enumerate(edge.consumers):
                cons_shell = self.shells[mapping[cons.task]]
                cons_row = StreamRow(
                    stream=sname,
                    task=cons.task,
                    port=cons.port,
                    is_producer=False,
                    buffer=buffer,
                    space=0,
                    remotes=(RemoteRef(prod_shell, prod_id, arm),),
                )
                cons_id = cons_shell.add_stream_row(cons_row)
                task_rows[cons.task].port_rows[cons.port] = cons_id
                remotes_for_producer.append(RemoteRef(cons_shell, cons_id, 0))
            prod_row.remotes = tuple(remotes_for_producer)

        # ---- start the machines ----
        for cname, spec in self.specs.items():
            self.coprocessors[cname] = Coprocessor(self.sim, spec, self.shells[cname], self)
        self._unfinished_tasks = len(graph.tasks)
        self._configured = True

        # ---- recovery & robustness monitors ----
        p = self.params
        if p.watchdog_timeout is not None:
            for cname, shell in self.shells.items():
                proc = self.sim.process(
                    shell.watchdog_run(
                        p.watchdog_timeout, p.watchdog_backoff, p.watchdog_max_backoff
                    )
                )
                proc.name = f"watchdog:{cname}"
        detect = p.deadlock_detection
        if detect is None:  # auto: on whenever faults or recovery are in play
            detect = self.fault_injector is not None or p.watchdog_timeout is not None
        if detect:
            proc = self.sim.process(self._deadlock_monitor())
            proc.name = "deadlock-monitor"
        self._monitors_active = detect or p.watchdog_timeout is not None

        # ---- observers requested in the params ----
        if p.sample_interval is not None:
            self.attach_sampler(p.sample_interval)

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------
    def attach_sampler(self, interval: int = 500):
        """Attach the §5.4 periodic sampling process (after
        ``configure()``; needs ``obs_level`` >= ``"series"``)."""
        self.sampler = Sampler(self, interval)
        return self.sampler

    def attach_tracer(self, capacity: int = 100_000):
        """Attach the span tracer (after ``configure()``; needs
        ``obs_level`` >= ``"series"``)."""
        self.tracer = SpanTracer(self, capacity)
        return self.tracer

    # ------------------------------------------------------------------
    # deadlock detection
    # ------------------------------------------------------------------
    def _global_progress(self) -> Tuple[int, int, int]:
        """Monotone system-wide progress fingerprint: total committed
        positions, credits applied, tasks finished."""
        positions = credits = 0
        for shell in self.shells.values():
            credits += shell.credits_applied
            for row in shell.stream_table:
                positions += row.position
        return positions, credits, self._unfinished_tasks

    def _deadlock_monitor(self) -> Generator:
        """Declare deadlock after ``deadlock_patience`` consecutive
        zero-progress checks with unfinished tasks; the raised
        :class:`DeadlockError` carries the blocked-on report, so even a
        livelocked run (watchdog retrying into a dead fabric forever)
        terminates with a diagnosis.

        With the watchdog on, the no-progress window spans at least two
        capped watchdog periods: a backed-off watchdog retries only once
        per period, so a shorter window can declare a run dead whose
        next retry would have got through."""
        p = self.params
        interval = p.deadlock_check_interval
        patience = p.deadlock_patience
        if p.watchdog_timeout is not None:
            capped = p.watchdog_timeout * p.watchdog_max_backoff
            patience = max(patience, -(-2 * capped // interval))
        idle_checks = 0
        last = self._global_progress()
        while not self.all_finished():
            yield interval
            if self.all_finished():
                return
            cur = self._global_progress()
            if cur != last:
                last = cur
                idle_checks = 0
                continue
            idle_checks += 1
            if idle_checks >= patience:
                report = self.blocked_report()
                raise DeadlockError(
                    f"deadlock detected at t={self.sim.now}: no progress for "
                    f"{idle_checks * interval} cycles with "
                    f"{self._unfinished_tasks} unfinished task(s)\n{report}",
                    report,
                )

    def blocked_report(self) -> str:
        """Human-readable map of every unfinished task to the access
        points it is blocked on (the deadlock diagnosis)."""
        lines: List[str] = []
        for cname, shell in self.shells.items():
            for task in shell.task_table:
                if task.finished:
                    continue
                if not task.blocked_on:
                    lines.append(
                        f"  task {task.name!r} @ {cname}: unfinished, no denied "
                        f"GetSpace on record (mid-step or never scheduled)"
                    )
                    continue
                for row_id in sorted(task.blocked_on):
                    row = shell.stream_table[row_id]
                    kind = "producer" if row.is_producer else "consumer"
                    eos = "yes" if row.eos_position is not None else "no"
                    lines.append(
                        f"  task {task.name!r} @ {cname}: blocked on access point "
                        f"{row.stream}.{row.port} ({kind}, position={row.position}, "
                        f"available={row.available()}, granted={row.granted}, eos={eos})"
                    )
        return "\n".join(lines) if lines else "  (no unfinished tasks)"

    # ------------------------------------------------------------------
    # history recording (monitoring hook used by Shell.put_space)
    # ------------------------------------------------------------------
    def record_committed(self, row: StreamRow, n_bytes: int) -> None:
        """Append the just-committed (and flushed) bytes of a producer
        row to the stream's history — zero simulated cost, pure
        observation used for golden-equivalence checks.

        Below ``obs_level="full"`` the recording is skipped entirely:
        because it is zero-simulated-cost observation, skipping it
        cannot change the event schedule — cycles and counters stay
        identical across levels (asserted by tests and the bench).
        """
        if not self.obs.histories:
            return
        rec = self._histories.get(row.stream)
        if rec is None:  # pragma: no cover - defensive
            return
        for addr, length in row.buffer.segments(row.position, n_bytes):
            rec.extend(self.sram.read(addr, length))
        # undo the observation's effect on SRAM counters
        self.sram.total_reads -= len(row.buffer.segments(row.position, n_bytes))
        self.sram.bytes_read -= n_bytes

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, strict: bool = True) -> SystemResult:
        """Simulate until the application completes (or ``until``).

        ``strict`` raises :class:`StalledError` if the event queue
        drains with unfinished tasks (a genuine deadlock); pass False to
        get the partial result for inspection instead.
        """
        if not self._configured:
            raise RuntimeError("configure() must be called before run()")
        try:
            # with monitors active the queue never drains (watchdog /
            # detector timeouts keep it populated): stop on completion
            self.sim.run(
                until=until,
                stop=self.all_finished if self._monitors_active else None,
            )
        except DeadlockError:
            if strict:
                raise
        stalled = [
            t.name
            for shell in self.shells.values()
            for t in shell.task_table
            if not t.finished
        ]
        completed = not stalled
        if not completed and until is None and strict:
            raise StalledError(
                f"application stalled after {self.sim.now} cycles; "
                f"unfinished tasks: {stalled}\n{self.blocked_report()}"
            )
        return self._result(completed, stalled)

    def advance(self, until: int) -> bool:
        """Simulate forward to absolute cycle ``until`` and pause.

        Unlike :meth:`run` this neither finalizes the run nor bumps the
        clock past the last event when the queue drains early
        (``advance_time=False``), so a checkpointed
        ``advance(); advance(); ...; run()`` sequence ends at exactly
        the same final cycle — and hence the same :class:`SystemResult`
        — as one uninterrupted :meth:`run`.  Returns True once every
        task finished.  :class:`DeadlockError` propagates (a supervisor
        records it as the run's failure).
        """
        if not self._configured:
            raise RuntimeError("configure() must be called before advance()")
        if until < self.sim.now:
            raise ValueError(f"advance({until}) is in the past (now={self.sim.now})")
        self.sim.run(
            until=until,
            stop=self.all_finished if self._monitors_active else None,
            advance_time=False,
        )
        return self.all_finished()

    # ------------------------------------------------------------------
    # state export (checkpoint/restore and invariant monitors)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Deterministic, JSON-safe view of the complete system state.

        Everything an invariant monitor needs to check the shell
        protocol's bookkeeping, and everything a snapshot digests to
        cross-validate a replayed restore: stream/task tables, caches,
        scheduler positions, SRAM buffer contents, in-flight fabric
        messages, fault-injector progress, and the monotone counters.
        """
        import hashlib

        self.resilience["state_exports"] += 1
        cpu = self._cpu_stats()
        return {
            "now": self.sim.now,
            "configured": self._configured,
            "unfinished_tasks": self._unfinished_tasks,
            "monitors_active": self._monitors_active,
            "mapping": dict(sorted(self.mapping.items())) if self._configured else {},
            "shells": {
                name: shell.export_state()
                for name, shell in sorted(self.shells.items())
            },
            "coprocessors": {
                name: {
                    "steps_total": c.steps_total,
                    "busy_cycles": c.utilization.busy_cycles(),
                }
                for name, c in sorted(self.coprocessors.items())
            },
            "sram": self.sram.export_state(),
            "fabric": self.fabric.export_state(),
            "fault_injector": (
                self.fault_injector.export_state() if self.fault_injector else None
            ),
            "histories": {
                name: {
                    "sha256": hashlib.sha256(bytes(data)).hexdigest(),
                    "length": len(data),
                }
                for name, data in sorted(self._histories.items())
            },
            "buses": {
                "read": {
                    "transactions": self.read_bus.stats.transactions,
                    "bytes_transferred": self.read_bus.stats.bytes_transferred,
                    "busy_cycles": self.read_bus.stats.busy_cycles,
                    "wait_cycles": self.read_bus.stats.wait_cycles,
                },
                "write": {
                    "transactions": self.write_bus.stats.transactions,
                    "bytes_transferred": self.write_bus.stats.bytes_transferred,
                    "busy_cycles": self.write_bus.stats.busy_cycles,
                    "wait_cycles": self.write_bus.stats.wait_cycles,
                },
            },
            "dram": {
                "bytes_read": self.dram.bytes_read,
                "bytes_written": self.dram.bytes_written,
            },
            "cpu_sync_ops": cpu.transactions,
            "cpu_busy_cycles": cpu.busy_cycles,
        }

    def state_digest(self) -> str:
        """SHA-256 over the canonical JSON form of :meth:`export_state`
        — the identity a restored snapshot must reproduce exactly."""
        import hashlib
        import json

        blob = json.dumps(
            self.export_state(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def _result(self, completed: bool, stalled: List[str]) -> SystemResult:
        tasks: Dict[str, TaskReport] = {}
        streams: Dict[str, StreamReport] = {}
        hit_rate: Dict[str, float] = {}
        for cname, shell in self.shells.items():
            hit_rate[cname] = shell.read_cache.stats.hit_rate()
            for t in shell.task_table:
                tasks[t.name] = TaskReport(
                    name=t.name,
                    coprocessor=cname,
                    steps_completed=t.steps_completed,
                    steps_aborted=t.steps_aborted,
                    busy_cycles=t.busy_cycles,
                    compute_cycles=t.compute_cycles,
                    stall_cycles=t.stall_cycles,
                )
            for row in shell.stream_table:
                rep = streams.setdefault(
                    row.stream,
                    StreamReport(name=row.stream, buffer_size=row.buffer.size),
                )
                rep.denied_getspace += row.denied_getspace
                rep.granted_getspace += row.granted_getspace
                rep.putspace_messages += row.putspace_messages_sent
                if row.is_producer:
                    rep.bytes_transferred = row.committed_bytes
                elif row.fill_stat is not None:
                    rep.fill_mean = max(rep.fill_mean, row.fill_stat.mean())
                    rep.fill_max = max(rep.fill_max, row.fill_stat.maximum)
        elapsed = self.sim.now
        robustness = None
        if self.fault_injector is not None or self.params.watchdog_timeout is not None:
            robustness = {
                "injected": (
                    self.fault_injector.stats.to_dict() if self.fault_injector else {}
                ),
                "messages_dropped": self.fabric.messages_dropped,
                "messages_delivered": self.fabric.messages_delivered,
                "watchdog_fires": sum(s.watchdog_fires for s in self.shells.values()),
                "retries_sent": sum(s.retries_sent for s in self.shells.values()),
                "recoveries": sum(s.recoveries for s in self.shells.values()),
                "corruptions_detected": sum(
                    s.corruptions_detected for s in self.shells.values()
                ),
            }
        # graceful-degradation accounting: any kernel may report via the
        # degradation_stats() duck-type (repro.media.conceal); None keeps
        # loss-free results byte-identical to the pre-network format
        degradation = None
        deg_tasks: Dict[str, Dict[str, object]] = {}
        for shell in self.shells.values():
            for t in shell.task_table:
                stats_fn = getattr(t.kernel, "degradation_stats", None)
                if stats_fn is None:
                    continue
                stats = stats_fn()
                if stats is not None:
                    deg_tasks[t.name] = dict(stats)
        if deg_tasks:
            diagnoses = []
            for tname in sorted(deg_tasks):
                for d in deg_tasks[tname].pop("diagnoses", []):
                    diagnoses.append({"task": tname, **d})
            degradation = {
                "tasks": {k: deg_tasks[k] for k in sorted(deg_tasks)},
                "diagnoses": diagnoses,
            }
        cpu = self._cpu_stats()
        return SystemResult(
            cycles=elapsed,
            completed=completed,
            stalled_tasks=stalled,
            histories={k: bytes(v) for k, v in self._histories.items()},
            tasks=tasks,
            streams=streams,
            utilization={
                c.name: c.utilization.utilization() for c in self.coprocessors.values()
            },
            read_bus_utilization=self.read_bus.stats.utilization(elapsed),
            write_bus_utilization=self.write_bus.stats.utilization(elapsed),
            cache_hit_rate=hit_rate,
            messages_sent=self.fabric.messages_sent,
            cpu_sync_ops=cpu.transactions,
            cpu_busy_cycles=cpu.busy_cycles,
            robustness=robustness,
            degradation=degradation,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EclipseSystem {list(self.specs)} @ t={self.sim.now}>"
