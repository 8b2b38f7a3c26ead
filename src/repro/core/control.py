"""Run-time control: the main CPU's view over the shells (paper §5.4).

"All shell tables are memory-mapped and accessible to the main CPU via
a control bus (PI-bus)" — and the measurements they accumulate are used
for "run-time control for quality-of-service resource management in the
final product".

:class:`ControlInterface` is that memory-mapped access: field-level
reads of any stream/task-table entry and run-time writes of the
scheduler configuration (budgets, task enables).  Writes take effect at
the shell's next scheduling decision, exactly like a register write
racing the hardware.

:class:`QosController` is a minimal §5.4-style controller: a periodic
process that reads the per-stream filling measurements and rebalances
task budgets toward the tasks whose input buffers are fullest — i.e.
the ones currently limiting application progress.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.system import EclipseSystem
from repro.core.task_table import TaskRow

__all__ = ["ControlInterface", "QosController"]


class ControlInterface:
    """Memory-mapped register access to all shell tables."""

    def __init__(self, system: EclipseSystem):
        if not system.coprocessors:
            raise RuntimeError("attach the ControlInterface after configure()")
        self.system = system
        self._tasks: Dict[str, Tuple[str, TaskRow]] = {}
        for cname, shell in system.shells.items():
            for row in shell.task_table:
                self._tasks[row.name] = (cname, row)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def task_names(self):
        return sorted(self._tasks)

    def read_task(self, task: str) -> Dict[str, object]:
        """One task row's registers."""
        cop, row = self._lookup(task)
        return {
            "coprocessor": cop,
            "budget": row.budget,
            "enabled": row.enabled,
            "finished": row.finished,
            "steps_completed": row.steps_completed,
            "steps_aborted": row.steps_aborted,
            "busy_cycles": row.busy_cycles,
            "stall_cycles": row.stall_cycles,
        }

    def read_stream_fill(self, task: str) -> Dict[str, int]:
        """Available data per input port of ``task`` (space fields)."""
        cop, row = self._lookup(task)
        shell = self.system.shells[cop]
        out = {}
        for port, row_id in row.port_rows.items():
            srow = shell.stream_table[row_id]
            if not srow.is_producer:
                out[port] = srow.available()
        return out

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def set_budget(self, task: str, budget: int) -> None:
        """Reconfigure a task's scheduler budget at run time."""
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        cop, row = self._lookup(task)
        row.budget = budget
        self.system.shells[cop]._notify()

    def set_enabled(self, task: str, enabled: bool) -> None:
        """Pause/resume a task.  A disabled task is never scheduled; the
        application stalls if it is on the critical path (user beware),
        and resumes when re-enabled."""
        cop, row = self._lookup(task)
        row.enabled = enabled
        self.system.shells[cop]._notify()

    def _lookup(self, task: str) -> Tuple[str, TaskRow]:
        entry = self._tasks.get(task)
        if entry is None:
            raise KeyError(f"unknown task {task!r}; known: {self.task_names()}")
        return entry


class QosController:
    """Periodic budget rebalancing from the hardware measurements.

    Every ``interval`` cycles, for each multi-tasking shell, set each
    unfinished task's budget proportionally to the filling of its input
    buffers (bounded to [min_budget, max_budget]) — starving tasks shed
    budget, backlogged tasks gain it.  ``adjustments`` counts applied
    changes so tests/benches can see the controller act.
    """

    def __init__(
        self,
        system: EclipseSystem,
        interval: int = 2000,
        min_budget: int = 500,
        max_budget: int = 8000,
    ):
        if interval < 1:
            raise ValueError("interval must be >= 1")
        if not (1 <= min_budget <= max_budget):
            raise ValueError("need 1 <= min_budget <= max_budget")
        self.system = system
        self.control = ControlInterface(system)
        self.interval = interval
        self.min_budget = min_budget
        self.max_budget = max_budget
        self.adjustments = 0
        system.sim.process(self._run())

    def _rebalance_once(self) -> None:
        for cname, shell in self.system.shells.items():
            live = [t for t in shell.task_table if not t.finished and t.enabled]
            if len(live) < 2:
                continue
            fills = {}
            for t in live:
                per_port = self.control.read_stream_fill(t.name)
                fills[t.name] = max(per_port.values()) if per_port else 0
            total = sum(fills.values())
            if total == 0:
                continue
            span = self.max_budget - self.min_budget
            for t in live:
                target = self.min_budget + round(span * fills[t.name] / total)
                if target != t.budget:
                    t.budget = target
                    self.adjustments += 1

    def _run(self):
        while True:
            if all(not c.is_alive for c in self.system.coprocessors.values()):
                return
            self._rebalance_once()
            yield self.interval
