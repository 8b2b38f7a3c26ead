"""The coprocessor control loop (paper Section 4).

"The coprocessor executes an infinite loop over processing steps":
ask the shell which task to run (GetTask), run one processing step of
that task's kernel, repeat.  Multi-tasking is the shared responsibility
the paper describes — the shell schedules, the coprocessor provides the
switch points (step boundaries) and holds task state (here: the kernel
instances).

The same class models hardwired coprocessors and the software media
processor (DSP-CPU): a software unit simply runs the identical kernels
with a larger ``compute_factor``.
"""

from __future__ import annotations

from typing import Generator, Optional, TYPE_CHECKING

from repro.core.config import CoprocessorSpec
from repro.core.task_table import TaskRow
from repro.kahn.kernel import (
    ComputeOp,
    ExternalAccessOp,
    GetSpaceOp,
    PutSpaceOp,
    ReadOp,
    StepOutcome,
    WriteOp,
)
from repro.sim import Simulator, UtilizationProbe

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.shell import Shell
    from repro.core.system import EclipseSystem

__all__ = ["Coprocessor"]


class Coprocessor:
    """One computation unit executing the GetTask / processing-step loop."""

    def __init__(
        self,
        sim: Simulator,
        spec: CoprocessorSpec,
        shell: "Shell",
        system: "EclipseSystem",
    ):
        self.sim = sim
        self.spec = spec
        self.name = spec.name
        self.shell = shell
        self.system = system
        self.utilization = UtilizationProbe(sim)
        self.steps_total = 0
        self.process = sim.process(self._run())
        self.process.name = f"coproc:{self.name}"

    # ------------------------------------------------------------------
    def _run(self) -> Generator:
        elapsed = 0
        while True:
            # fault injection: a transient stall at the step boundary
            # (clock gating, voltage droop, debug halt...) — the
            # protocol must only ever see it as latency
            stall = self.system.fault_coproc_stall(self.name)
            if stall:
                yield stall
            row = yield from self.shell.get_task(elapsed)
            if row is None:
                return  # all tasks finished; power down
            t0 = self.sim.now
            self.utilization.set_busy()
            outcome = yield from self._run_step(row)
            self.utilization.set_idle()
            elapsed = self.sim.now - t0
            row.busy_cycles += elapsed
            self.steps_total += 1
            if outcome is StepOutcome.COMPLETED:
                row.steps_completed += 1
            elif outcome is StepOutcome.ABORTED:
                row.steps_aborted += 1
            elif outcome is StepOutcome.FINISHED:
                self.shell.finish_task(row)
            else:  # pragma: no cover - defensive
                raise TypeError(
                    f"{self.name}/{row.name}: step returned {outcome!r}, "
                    "expected a StepOutcome"
                )

    def _run_step(self, row: TaskRow) -> Generator:
        """Drive one processing step of ``row``'s kernel, servicing its
        ops through the shell with full cycle costs."""
        gen = row.kernel.step(row.ctx)
        to_send = None
        while True:
            try:
                op = gen.send(to_send)
            except StopIteration as stop:
                return stop.value if stop.value is not None else StepOutcome.COMPLETED
            if isinstance(op, GetSpaceOp):
                to_send = yield from self.shell.get_space(row, op.port, op.n_bytes)
            elif isinstance(op, ReadOp):
                to_send = yield from self.shell.read(row, op.port, op.offset, op.n_bytes)
            elif isinstance(op, WriteOp):
                yield from self.shell.write(row, op.port, op.offset, op.data)
                to_send = None
            elif isinstance(op, PutSpaceOp):
                yield from self.shell.put_space(row, op.port, op.n_bytes)
                to_send = None
            elif isinstance(op, ComputeOp):
                cycles = max(0, round(op.cycles * self.spec.compute_factor))
                row.compute_cycles += cycles
                if cycles:
                    yield cycles
                to_send = None
            elif isinstance(op, ExternalAccessOp):
                if op.posted:
                    # write-buffered: occupies the off-chip port without
                    # stalling the coprocessor
                    self.sim.process(
                        self.system.dram.access(op.n_bytes, op.is_write, master=self.name)
                    )
                else:
                    yield from self.system.dram.access(op.n_bytes, op.is_write, master=self.name)
                to_send = None
            else:
                raise TypeError(
                    f"{self.name}/{row.name}: kernel yielded {type(op).__name__}; "
                    "expected a task-level-interface op"
                )

    @property
    def is_alive(self) -> bool:
        return self.process.is_alive

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Coprocessor {self.name!r} steps={self.steps_total}>"
