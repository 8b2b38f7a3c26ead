"""Operation logging: a structured trace of task-level-interface ops.

The §7 simulator was a *design tool*: when a run misbehaves, designers
need to see exactly which primitive each coprocessor issued when.
:class:`OpLog` attaches to a configured system and records step
begin/end, GetSpace (grant/deny/eos), PutSpace and every fabric
message as ``(time, unit, task, kind, detail)`` records, with an
optional filter and a bounded buffer (oldest records dropped): a
:class:`~repro.obs.spans.SpanRecorder` on the cycle clock holding one
instant per operation, which :attr:`OpLog.records` renders.

Zero cost when not attached; deterministic (pure observation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, TYPE_CHECKING

from repro.obs.spans import SpanRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import EclipseSystem

__all__ = ["OpRecord", "OpLog", "render_oplog"]


@dataclass(frozen=True)
class OpRecord:
    """One logged operation."""

    time: int
    unit: str
    task: str
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.time:>10}] {self.unit:>6} {self.task:>12} {self.kind:<9} {self.detail}"


class OpLog(SpanRecorder):
    """Bounded in-memory operation trace for one system."""

    def __init__(
        self,
        system: EclipseSystem,
        capacity: int = 10_000,
        predicate: Optional[Callable[[OpRecord], bool]] = None,
    ):
        super().__init__(capacity, clock=lambda: system.sim.now,
                         process_name="eclipse")
        if not system.coprocessors:
            raise RuntimeError(
                "attach the OpLog after EclipseSystem.configure() — it wraps "
                "the running coprocessors, which do not exist yet"
            )
        if not system.obs.oplog:
            raise RuntimeError(
                f"operation logging is disabled at obs_level={system.obs!s} — "
                "build the system with obs_level='full' "
                "(SystemParams.obs_level, or --obs-level on the CLI)"
            )
        self.system = system
        self.predicate = predicate
        self._install()

    # ------------------------------------------------------------------
    def _emit(self, unit: str, task: str, kind: str, detail: str) -> None:
        rec = OpRecord(self.now(), unit, task, kind, detail)
        if self.predicate is None or self.predicate(rec):
            self.instant(kind, "op", unit, task=task, detail=detail)

    @property
    def records(self) -> List[OpRecord]:
        """The ring's operations, oldest first."""
        units = {tid: name for name, tid in self.tids.items()}
        return [OpRecord(ev.ts, units[ev.tid], ev.args["task"], ev.name, ev.args["detail"])
                for ev in self.events]

    def _install(self) -> None:
        for cname, coproc in self.system.coprocessors.items():
            self._wrap_coprocessor(cname, coproc)
        fabric = self.system.fabric
        original_send = fabric.send

        def send(dest, msg, _orig=original_send):
            self._emit("fabric", "-", type(msg).__name__, f"-> {dest.name} {msg}")
            _orig(dest, msg)

        fabric.send = send  # type: ignore[method-assign]

    def _wrap_coprocessor(self, cname: str, coproc) -> None:
        original = coproc._run_step

        log = self._emit

        def run_step(row, _orig=original):
            log(cname, row.name, "step", "begin")
            outcome = yield from _orig(row)
            log(cname, row.name, "step", f"end:{outcome.value}")
            return outcome

        coproc._run_step = run_step  # type: ignore[method-assign]
        shell = coproc.shell
        for name in ("get_space", "put_space"):
            original_prim = getattr(shell, name)

            def prim(task, port, n, _orig=original_prim, _name=name):
                result = yield from _orig(task, port, n)
                detail = f"{port}:{n}"
                if _name == "get_space":
                    detail += f" -> {'grant' if result else 'DENY'}"
                    if getattr(result, "eos", False):
                        detail += "(eos)"
                log(cname, task.name, _name, detail)
                return result

            setattr(shell, name, prim)

    # ------------------------------------------------------------------
    def filter(self, kind: Optional[str] = None, task: Optional[str] = None) -> List[OpRecord]:
        return [
            r
            for r in self.records
            if (kind is None or r.kind == kind) and (task is None or r.task == task)
        ]


def render_oplog(log: OpLog, last: int = 40) -> str:
    """The header and the last ``last`` ops, one op per line."""
    records = log.records[max(0, len(log) - last):]
    header = (
        f"op log: showing {len(records)} of {log.total} records "
        f"({log.dropped} dropped by the ring buffer)"
    )
    return "\n".join([header] + [str(r) for r in records])
