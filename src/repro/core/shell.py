"""The coprocessor shell (paper Sections 3.1, 5).

The shell is the per-coprocessor hardware block that "absorbs many
system-level issues, such as multi-tasking, stream synchronization, and
data transport", presenting the five-primitive task-level interface to
its coprocessor and a uniform interface to the communication hardware.

One :class:`Shell` instance owns:

* a stream table (:mod:`repro.core.stream_table`) — one row per access
  point, with the local *space* field answered by GetSpace and updated
  by putspace messages (Figure 7);
* a task table and weighted round-robin scheduler (§5.3);
* a read cache and a write cache with explicit coherency driven by
  GetSpace (invalidate the window extension) and PutSpace (flush the
  committed range, then send the message) — §5.2's three rules;
* prefetching on GetSpace/Read;
* measurement counters (§5.4).

All primitive implementations are generator methods ``yield from``-ed
inside the coprocessor's process, which serializes them — the paper
makes the coprocessor "responsible for serializing simultaneous
requests from different task ports".
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple, TYPE_CHECKING

from repro.core.cache import ReadCache, WriteCache
from repro.core.config import ShellParams
from repro.core.messages import EosMsg, PutSpaceMsg
from repro.core.scheduler import ScheduleVerdict, WeightedRoundRobinScheduler
from repro.core.stream_table import StreamRow, StreamTable
from repro.core.task_table import TaskRow, TaskTable
from repro.kahn.kernel import Space
from repro.sim import Event, Simulator, TimeWeightedStat

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import EclipseSystem

__all__ = ["Shell", "ShellProtocolError"]


class ShellProtocolError(RuntimeError):
    """A kernel violated the task-level-interface contract (e.g. read
    outside its granted window) — always a bug in the kernel."""


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class Shell:
    """Generic infrastructure instance serving one coprocessor."""

    def __init__(self, sim: Simulator, name: str, params: ShellParams, system: "EclipseSystem"):
        self.sim = sim
        self.name = name
        self.params = params
        self.system = system
        self.stream_table = StreamTable()
        self.task_table = TaskTable()
        self.scheduler = WeightedRoundRobinScheduler(
            self.task_table, best_guess=params.best_guess_scheduling
        )
        self.read_cache = ReadCache(params.read_cache_lines, params.cache_line)
        self.write_cache = WriteCache(params.write_cache_lines, params.cache_line)
        #: line_addr -> fill-completion event, for fetch deduplication;
        #: None until a second reader waits on the fill
        self._inflight: Dict[int, Optional[Event]] = {}
        #: read-cache lines whose fill was corrupted in flight; the
        #: parity check in :meth:`read` catches them at use time
        self._poisoned: set = set()
        #: what an idle GetTask waits on; made only when one does
        self._wake: Optional[Event] = None
        # ----- shell-level counters -----
        self.getspace_ops = 0
        self.putspace_ops = 0
        self.gettask_ops = 0
        self.read_hits = 0
        self.read_misses = 0
        self.idle_wait_cycles = 0
        # ----- robustness counters (fault injection & recovery) -----
        self.messages_delivered = 0
        self.credits_applied = 0
        self.watchdog_fires = 0
        self.retries_sent = 0
        self.recoveries = 0
        self.corruptions_detected = 0

    # ------------------------------------------------------------------
    # configuration (the CPU programming the tables over the PI-bus)
    # ------------------------------------------------------------------
    def add_task(self, row: TaskRow) -> int:
        return self.task_table.add(row)

    def add_stream_row(self, row: StreamRow) -> int:
        # fill statistics are pure observation (§5.4 counters): below
        # obs_level="counters" the stat is simply never created, and
        # every consumer of fill_stat already None-guards
        if not row.is_producer and self.system.obs.fill_stats:
            row.fill_stat = TimeWeightedStat(self.sim, initial=0.0)
        return self.stream_table.add(row)

    # ------------------------------------------------------------------
    # wake broadcast
    # ------------------------------------------------------------------
    def _notify(self) -> None:
        ev = self._wake
        if ev is not None:
            self._wake = None
            ev.succeed()

    # ------------------------------------------------------------------
    # primitive: GetTask
    # ------------------------------------------------------------------
    def get_task(self, elapsed: int) -> Generator:
        """Answer a GetTask inquiry; returns a TaskRow or None (done).

        Blocks (simulated) while no task is runnable — the coprocessor
        idles until a putspace/eos message makes one runnable again.
        """
        self.gettask_ops += 1
        yield self.params.gettask_cycles
        while True:
            verdict, row = self.scheduler.select(elapsed)
            elapsed = 0  # charged exactly once
            if verdict is ScheduleVerdict.DONE:
                return None
            if verdict is ScheduleVerdict.RUN:
                return row
            t0 = self.sim.now
            if self._wake is None:
                self._wake = Event(self.sim)
            yield self._wake
            self.idle_wait_cycles += self.sim.now - t0

    # ------------------------------------------------------------------
    # primitive: GetSpace
    # ------------------------------------------------------------------
    def get_space(self, task: TaskRow, port: str, n_bytes: int) -> Generator:
        self.getspace_ops += 1
        yield self.params.getspace_cycles
        if self.system._central_cpu is not None:
            yield from self.system.central_sync_cost()
        row_id = task.port_rows[port]
        row = self.stream_table[row_id]
        if n_bytes > row.buffer.size:
            # can never be granted: a configuration error, not a wait
            raise ShellProtocolError(
                f"{self.name}/{task.name}: GetSpace({port!r}, {n_bytes}) exceeds "
                f"buffer size {row.buffer.size} of stream {row.stream!r}"
            )
        avail = row.available()
        if n_bytes <= avail:
            row.granted_getspace += 1
            if n_bytes > row.granted:
                if not row.is_producer:
                    # coherency rule 2: invalidate the window extension
                    ext = row.buffer.lines(
                        row.position + row.granted,
                        n_bytes - row.granted,
                        self.params.cache_line,
                    )
                    self.read_cache.invalidate(ext)
                    self._poisoned.difference_update(ext)
                row.granted = n_bytes
            if not row.is_producer and self.params.prefetch_lines:
                self._spawn_prefetch(row, row.position, row.granted)
            return Space(granted=True, available=avail)
        row.denied_getspace += 1
        if not row.is_producer and row.at_eos():
            return Space(granted=False, eos=True, available=avail)
        task.blocked_on.add(row_id)
        return Space(granted=False, available=avail)

    # ------------------------------------------------------------------
    # primitive: Read
    # ------------------------------------------------------------------
    def read(self, task: TaskRow, port: str, offset: int, n_bytes: int) -> Generator:
        row = self.stream_table[task.port_rows[port]]
        if row.is_producer:
            raise ShellProtocolError(f"{self.name}/{task.name}: Read on output port {port!r}")
        if offset + n_bytes > row.granted:
            raise ShellProtocolError(
                f"{self.name}/{task.name}: Read [{offset}:{offset + n_bytes}) outside "
                f"granted window of {row.granted} B on {port!r}"
            )
        if n_bytes == 0:
            return b""
        # datapath transfer time coprocessor<->shell
        yield _ceil_div(n_bytes, self.params.port_width)
        t0 = self.sim.now
        line_size = self.params.cache_line
        cache = self.read_cache
        lines = cache._lines
        poisoned = self._poisoned
        inflight = self._inflight
        parts = []
        for seg_addr, seg_len in row.buffer.segments(row.position + offset, n_bytes):
            addr = seg_addr
            seg_end = seg_addr + seg_len
            while addr < seg_end:
                line_addr = addr - addr % line_size
                data = lines.get(line_addr)
                if data is not None and line_addr not in poisoned:
                    lines.move_to_end(line_addr)
                    self.read_hits += 1
                    cache.stats.hits += 1
                else:
                    # one miss per access, however many fills it waits on
                    self.read_misses += 1
                    cache.stats.misses += 1
                    while True:
                        if data is not None:
                            if line_addr not in poisoned:
                                # a fill that another fetch completed;
                                # already MRU: fill() left it so, a shell
                                # has one demand reader, and the exclusive
                                # read bus lands no other fill before the
                                # waiter wakes
                                break
                            # the parity check catches the corrupted
                            # fill: drop the line and refetch, so
                            # transient faults never reach the coprocessor
                            self.corruptions_detected += 1
                            cache.invalidate((line_addr,))
                            poisoned.discard(line_addr)
                        if line_addr in inflight:
                            # share the in-flight fill
                            pending = inflight[line_addr]
                            if pending is None:
                                pending = inflight[line_addr] = Event(self.sim)
                            yield pending
                            data = lines.get(line_addr)
                            continue
                        data = yield from self._fetch_line(line_addr, prefetch=False)
                        if line_addr not in poisoned:
                            break
                line_end = line_addr + line_size
                if line_end > seg_end:
                    line_end = seg_end
                parts.append(data[addr - line_addr : line_end - line_addr])
                addr = line_end
        task.stall_cycles += self.sim.now - t0
        if self.params.prefetch_lines:
            end = offset + n_bytes
            ahead = min(row.granted - end, self.params.prefetch_lines * line_size)
            if ahead > 0:
                self._spawn_prefetch(row, row.position + end, ahead)
        return b"".join(parts)

    def _fetch_line(self, line_addr: int, prefetch: bool) -> Generator:
        """Fill ``line_addr`` over the read bus; returns the line as
        filled, which a fault may have corrupted (see ``_poisoned``)."""
        self._inflight[line_addr] = None
        try:
            yield from self.system.read_bus.transfer(
                self.params.cache_line,
                master=self.name,
                priority=1 if prefetch else 0,
            )
            data = self.system.sram.read(line_addr, self.params.cache_line)
            corrupted = self.system.fault_corrupt_line(data)
            if corrupted is not None:
                data = corrupted
                self._poisoned.add(line_addr)
            else:
                self._poisoned.discard(line_addr)
            self.read_cache.fill(line_addr, data, prefetch=prefetch)
        finally:
            ev = self._inflight.pop(line_addr)
            if ev is not None:
                ev.succeed()
        return data

    def _spawn_prefetch(self, row: StreamRow, position: int, span: int) -> None:
        """Background-fetch up to ``prefetch_lines`` lines of
        [position, position+span) that are neither cached nor in
        flight.  Lower bus priority than demand fetches."""
        line_size = self.params.cache_line
        span = min(span, self.params.prefetch_lines * line_size)
        if span <= 0:
            return
        todo = [
            line
            for line in row.buffer.lines(position, span, line_size)
            if not self.read_cache.contains(line) and line not in self._inflight
        ][: self.params.prefetch_lines]
        if not todo:
            return

        def run(shell: "Shell", lines: List[int]):
            for line in lines:
                if shell.read_cache.contains(line) or line in shell._inflight:
                    continue
                yield from shell._fetch_line(line, prefetch=True)

        self.sim.process(run(self, todo))

    # ------------------------------------------------------------------
    # primitive: Write
    # ------------------------------------------------------------------
    def write(self, task: TaskRow, port: str, offset: int, data: bytes) -> Generator:
        row = self.stream_table[task.port_rows[port]]
        if not row.is_producer:
            raise ShellProtocolError(f"{self.name}/{task.name}: Write on input port {port!r}")
        if offset + len(data) > row.granted:
            raise ShellProtocolError(
                f"{self.name}/{task.name}: Write [{offset}:{offset + len(data)}) outside "
                f"granted window of {row.granted} B on {port!r}"
            )
        if not data:
            return
        yield _ceil_div(len(data), self.params.port_width)
        pos = 0
        for seg_addr, seg_len in row.buffer.segments(row.position + offset, len(data)):
            evicted = self.write_cache.write(seg_addr, data[pos : pos + seg_len])
            pos += seg_len
            if evicted:
                yield from self._flush_lines(evicted)

    def _flush_lines(self, lines: List[Tuple[int, bytes, bytes]]) -> Generator:
        """Write ``(line_addr, data, mask)`` lines back to the SRAM, one
        write-bus transaction per line."""
        for line_addr, data, mask in lines:
            yield from self.system.write_bus.transfer(self.params.cache_line, master=self.name)
            self.system.sram.write_masked(line_addr, data, mask)

    # ------------------------------------------------------------------
    # primitive: PutSpace
    # ------------------------------------------------------------------
    def put_space(self, task: TaskRow, port: str, n_bytes: int) -> Generator:
        self.putspace_ops += 1
        yield self.params.putspace_cycles
        if self.system._central_cpu is not None:
            yield from self.system.central_sync_cost()
        row = self.stream_table[task.port_rows[port]]
        if n_bytes > row.granted:
            raise ShellProtocolError(
                f"{self.name}/{task.name}: PutSpace({port!r}, {n_bytes}) exceeds "
                f"granted window of {row.granted} B"
            )
        if n_bytes == 0:
            return
        if row.is_producer:
            # coherency rule 3: flush the committed range, then message
            for seg_addr, seg_len in row.buffer.segments(row.position, n_bytes):
                flushed = self.write_cache.flush_range(seg_addr, seg_len)
                if flushed:
                    yield from self._flush_lines(flushed)
            self.system.record_committed(row, n_bytes)
        row.commit(n_bytes)
        for remote in row.remotes:
            row.putspace_messages_sent += 1
            # the cumulative position makes delivery idempotent: the
            # receiver credits max(0, cumulative - already_applied)
            self.system.fabric.send(
                remote.shell,
                PutSpaceMsg(remote.row_id, remote.arm, n_bytes, cumulative=row.position),
            )

    # ------------------------------------------------------------------
    # task completion
    # ------------------------------------------------------------------
    def finish_task(self, task: TaskRow) -> None:
        """Mark the task finished and propagate end-of-stream to the
        consumers of its output streams."""
        task.finished = True
        for port, row_id in task.port_rows.items():
            row = self.stream_table[row_id]
            if row.is_producer:
                for remote in row.remotes:
                    self.system.fabric.send(
                        remote.shell,
                        EosMsg(remote.row_id, remote.arm, final_position=row.position),
                    )
        self.system.task_finished(task)
        self._notify()

    # ------------------------------------------------------------------
    # message delivery (called by the fabric at arrival time)
    # ------------------------------------------------------------------
    def deliver(self, msg) -> None:
        self.messages_delivered += 1
        row = self.stream_table[msg.row_id]
        if isinstance(msg, PutSpaceMsg):
            delta = row.apply_credit(msg.arm, msg.n_bytes, msg.cumulative)
            self.credits_applied += delta
            if delta and not row.is_producer and row.fill_stat is not None:
                row.fill_stat.add(delta)
            if delta and msg.retry:
                self.recoveries += 1
        elif isinstance(msg, EosMsg):
            if msg.retry and row.eos_position is None:
                self.recoveries += 1
            row.eos_position = msg.final_position
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown message {msg!r}")
        self.task_table.unblock(msg.row_id)
        self._notify()

    # ------------------------------------------------------------------
    # watchdog (recovery machinery for lossy fabrics)
    # ------------------------------------------------------------------
    def _progress_snapshot(self) -> Tuple[int, int, int]:
        """Monotone local-progress fingerprint: stream positions,
        credits applied, tasks finished.  Deliberately excludes raw
        message arrivals so idempotent retries with no effect do not
        mask a stall."""
        return (
            sum(row.position for row in self.stream_table),
            self.credits_applied,
            sum(1 for t in self.task_table if t.finished),
        )

    def _resend_credits(self) -> None:
        """Re-send every row's cumulative credit (and EOS for finished
        producer tasks) to its remotes.  Idempotent on arrival, so
        over-sending is merely wasted bandwidth."""
        for row in self.stream_table:
            for remote in row.remotes:
                self.retries_sent += 1
                self.system.fabric.send(
                    remote.shell,
                    PutSpaceMsg(
                        remote.row_id, remote.arm, 0, cumulative=row.position, retry=True
                    ),
                )
        for task in self.task_table:
            if not task.finished:
                continue
            for row_id in task.port_rows.values():
                row = self.stream_table[row_id]
                if not row.is_producer:
                    continue
                for remote in row.remotes:
                    self.retries_sent += 1
                    self.system.fabric.send(
                        remote.shell,
                        EosMsg(
                            remote.row_id,
                            remote.arm,
                            final_position=row.position,
                            retry=True,
                        ),
                    )

    def watchdog_run(self, timeout: int, backoff: int, max_backoff: int) -> Generator:
        """Watchdog process: after ``timeout`` cycles without local
        progress, re-send space credits with exponential backoff
        (capped at ``timeout * max_backoff``).  Exits once the whole
        system completed."""
        from repro.core.backoff import ExponentialBackoff

        policy = ExponentialBackoff(timeout, backoff, timeout * max_backoff)
        last = self._progress_snapshot()
        while not self.system.all_finished():
            yield policy.current
            if self.system.all_finished():
                return
            cur = self._progress_snapshot()
            if cur != last:
                last = cur
                policy.reset()
                continue
            self.watchdog_fires += 1
            self._resend_credits()
            policy.escalate()

    # ------------------------------------------------------------------
    # state export (snapshots, invariant monitors)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """JSON-safe view of the shell's full synchronization state."""
        return {
            "name": self.name,
            "streams": self.stream_table.export_state(),
            "tasks": self.task_table.export_state(),
            "scheduler": self.scheduler.export_state(),
            "read_cache": self.read_cache.export_state(),
            "write_cache": self.write_cache.export_state(),
            "poisoned": sorted(self._poisoned),
            "inflight_lines": sorted(self._inflight),
            "counters": {
                "getspace_ops": self.getspace_ops,
                "putspace_ops": self.putspace_ops,
                "gettask_ops": self.gettask_ops,
                "read_hits": self.read_hits,
                "read_misses": self.read_misses,
                "idle_wait_cycles": self.idle_wait_cycles,
                "messages_delivered": self.messages_delivered,
                "credits_applied": self.credits_applied,
                "watchdog_fires": self.watchdog_fires,
                "retries_sent": self.retries_sent,
                "recoveries": self.recoveries,
                "corruptions_detected": self.corruptions_detected,
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Shell {self.name!r}: {len(self.task_table)} tasks, {len(self.stream_table)} rows>"
