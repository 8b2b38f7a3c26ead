"""Periodic measurement sampling (paper §5.4).

"To reduce hardware costs of measurement support, a separate process in
the shell takes measurement samples at regular intervals."  The
:class:`Sampler` is that process: attach it to a configured system
before ``run()`` and it records, every ``interval`` cycles,

* the filling (space value) of every consumer stream row — Figure 10's
  signal ("available data in the stream buffers for the input of ...
  tasks"),
* each coprocessor's utilization within the window — Figure 9's
  architecture view,
* each task's completed-step count — used to segment the timeline into
  frames.

The sampler stops by itself once every coprocessor has powered down,
so it never keeps the simulation alive.
"""

from __future__ import annotations

from typing import Dict, Tuple, TYPE_CHECKING

from repro.sim import Series

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import EclipseSystem

__all__ = ["Sampler"]


class Sampler:
    """Bounded-memory time-series recorder for one system run.

    Attach via :meth:`repro.core.system.EclipseSystem.attach_sampler`
    (or ``SystemParams.sample_interval`` / ``--sample-interval`` on the
    CLI).  Requires ``obs_level`` >= ``"series"``.
    """

    def __init__(self, system: "EclipseSystem", interval: int = 500):
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        if not system.coprocessors:
            raise RuntimeError(
                "attach the Sampler after EclipseSystem.configure() — the "
                "coprocessors it samples do not exist yet (build the system, "
                "configure(graph), then attach; or set "
                "SystemParams.sample_interval to have configure() attach it)"
            )
        if not system.obs.series:
            raise RuntimeError(
                f"time-series sampling is disabled at obs_level={system.obs!s} — "
                "build the system with obs_level='series' or 'full' "
                "(SystemParams.obs_level, or --obs-level on the CLI)"
            )
        self.system = system
        self.interval = interval
        #: stream fill series keyed by (stream, consumer task)
        self.stream_fill: Dict[Tuple[str, str], Series] = {}
        #: windowed utilization per coprocessor
        self.utilization: Dict[str, Series] = {}
        #: cumulative completed steps per task
        self.task_steps: Dict[str, Series] = {}
        #: which task id each coprocessor's scheduler held per sample
        #: (-1 = none selected yet) — feeds the task Gantt view
        self.running_task: Dict[str, Series] = {}
        self._busy_prev: Dict[str, int] = {}
        for cname, coproc in system.coprocessors.items():
            self.utilization[cname] = Series(f"util:{cname}")
            self.running_task[cname] = Series(f"task:{cname}")
            self._busy_prev[cname] = 0
        for shell in system.shells.values():
            for row in shell.stream_table:
                if not row.is_producer:
                    key = (row.stream, row.task)
                    self.stream_fill[key] = Series(f"fill:{row.stream}->{row.task}")
            for task in shell.task_table:
                self.task_steps[task.name] = Series(f"steps:{task.name}")
        system.sim.process(self._run())

    def _sample_once(self) -> None:
        now = self.system.sim.now
        for shell in self.system.shells.values():
            for row in shell.stream_table:
                if not row.is_producer:
                    self.stream_fill[(row.stream, row.task)].record(now, row.available())
            for task in shell.task_table:
                self.task_steps[task.name].record(now, task.steps_completed)
        for cname, coproc in self.system.coprocessors.items():
            busy = coproc.utilization.busy_cycles()
            window = busy - self._busy_prev[cname]
            self._busy_prev[cname] = busy
            self.utilization[cname].record(now, window / self.interval)
            current = self.system.shells[cname].scheduler.current
            busy_now = coproc.utilization.is_busy
            self.running_task[cname].record(
                now, current if (current is not None and busy_now) else -1
            )

    def _run(self):
        while True:
            self._sample_once()
            if all(not c.is_alive for c in self.system.coprocessors.values()):
                return
            yield self.interval

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------
    def frame_boundaries(self, task: str, mbs_per_frame: int) -> Dict[int, int]:
        """Map frame index -> first sample time at which ``task`` had
        completed that frame's macroblocks (segments Figure 10's
        x-axis into frames using the task-progress series)."""
        series = self.task_steps[task]
        out: Dict[int, int] = {}
        frame = 0
        for t, steps in series:
            while steps >= (frame + 1) * mbs_per_frame:
                frame += 1
                out[frame] = t
        return out
