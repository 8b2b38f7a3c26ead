"""Span-based structured tracing with Chrome-trace/Perfetto export.

The §7 simulator was the design tool the Eclipse team used to *look
at* runs; :mod:`repro.trace` reproduces its counter views (Figures
9-10) and op listing.  :class:`SpanTracer` adds the third modern view:
a structured timeline of *spans* — task processing steps, shell
synchronization primitives, bus occupancy windows — plus *instant
events* for cache misses, checkpoints and injected faults, exported in
the Chrome trace-event JSON format that ``ui.perfetto.dev`` (or
``chrome://tracing``) loads directly.

The tracer is a :class:`~repro.obs.spans.SpanRecorder` on the cycle
clock that attaches to a *configured* system and wraps methods per
instance: pure observation, zero simulated cost, bounded memory.  The
recorded event stream is a pure function of the run — the same
contract the histories obey — so exported traces byte-compare across
repeated runs.

Span/thread model (deterministic, so exports byte-compare):

* one trace *thread* per coprocessor (sorted names → tids 1..N), where
  its step spans and shell-primitive spans nest;
* one thread per data bus (``read_bus``/``write_bus``) carrying
  occupancy spans from grant to release — never overlapping, because
  the bus is exclusive;
* thread 0 ("system") for instant events that belong to no
  coprocessor: checkpoints (``export_state``) and fault injections.

Timestamps are simulation cycles written into the microsecond field
(``ts``), so 1 cycle renders as 1 µs — Perfetto's timeline is then a
cycle-accurate ruler.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.spans import SpanRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import EclipseSystem

__all__ = ["SpanTracer"]


class SpanTracer(SpanRecorder):
    """Bounded-memory structured tracer for one configured system."""

    def __init__(self, system: "EclipseSystem", capacity: int = 100_000):
        super().__init__(capacity, clock=lambda: system.sim.now,
                         process_name="eclipse")
        if not system.coprocessors:
            raise RuntimeError(
                "attach the SpanTracer after EclipseSystem.configure() — "
                "it wraps the running coprocessors, which do not exist yet"
            )
        if not system.obs.spans:
            raise RuntimeError(
                f"span tracing is disabled at obs_level={system.obs!s} — "
                "build the system with obs_level='series' or 'full' "
                "(SystemParams.obs_level, or --obs-level on the CLI)"
            )
        self.system = system
        # deterministic thread ids: coprocessors first (sorted), then
        # the two data buses, with tid 0 reserved for system instants
        for name in [*sorted(system.coprocessors), "read_bus", "write_bus"]:
            self.thread(name)
        self._install()

    # ------------------------------------------------------------------
    # instrumentation (per-instance wrappers, OpLog-style)
    # ------------------------------------------------------------------
    def _install(self) -> None:
        system = self.system
        for cname, coproc in system.coprocessors.items():
            self._wrap_coprocessor(cname, coproc)
        for bus_name in ("read_bus", "write_bus"):
            self._wrap_bus(bus_name, getattr(system, bus_name))
        self._wrap_system(system)

    def _wrap_coprocessor(self, cname: str, coproc) -> None:
        original_step = coproc._run_step

        def run_step(row, _orig=original_step):
            span = self.begin(f"step:{row.name}", "step", cname, task=row.name)
            outcome = yield from _orig(row)
            self.end(span, outcome=outcome.value)
            return outcome

        coproc._run_step = run_step  # type: ignore[method-assign]

        shell = coproc.shell
        for prim, label in (("get_space", "GetSpace"), ("put_space", "PutSpace")):
            original_prim = getattr(shell, prim)

            def wrapped(task, port, n, _orig=original_prim, _label=label):
                span = self.begin(_label, "shell", cname, port=port, bytes=n)
                result = yield from _orig(task, port, n)
                extra = {}
                if _label == "GetSpace":
                    extra["granted"] = bool(result)
                    if getattr(result, "eos", False):
                        extra["eos"] = True
                self.end(span, task=task.name, **extra)
                return result

            setattr(shell, prim, wrapped)

        original_fetch = shell._fetch_line

        def fetch_line(line_addr, prefetch, _orig=original_fetch):
            self.instant(
                "prefetch" if prefetch else "cache_miss",
                "cache",
                cname,
                line=line_addr,
                shell=cname,
            )
            return (yield from _orig(line_addr, prefetch))

        shell._fetch_line = fetch_line  # type: ignore[method-assign]

    def _wrap_bus(self, bus_name: str, bus) -> None:
        original = bus.transfer

        def transfer(n_bytes, master="", priority=0, _orig=original):
            result = yield from _orig(n_bytes, master=master, priority=priority)
            # reconstruct the grant->release occupancy window: the bus
            # is exclusive, so these spans never overlap on their tid
            dur = bus.occupancy_cycles(n_bytes)
            self.complete(f"xfer:{master or 'anon'}", "bus", bus_name,
                          self.now() - dur, dur,
                          bytes=n_bytes, master=master, priority=priority)
            return result

        bus.transfer = transfer  # type: ignore[method-assign]

    def _wrap_system(self, system) -> None:
        original_export = system.export_state

        def export_state(_orig=original_export):
            state = _orig()
            self.instant("checkpoint", "resilience", cycle=state["now"])
            return state

        system.export_state = export_state  # type: ignore[method-assign]

        original_stall = system.fault_coproc_stall

        def fault_coproc_stall(name, _orig=original_stall):
            stall = _orig(name)
            if stall:
                self.instant("fault:coproc_stall", "fault",
                             coprocessor=name, cycles=stall)
            return stall

        system.fault_coproc_stall = fault_coproc_stall  # type: ignore[method-assign]

        original_corrupt = system.fault_corrupt_line

        def fault_corrupt_line(data, _orig=original_corrupt):
            corrupted = _orig(data)
            if corrupted is not None:
                self.instant("fault:corrupt_line", "fault", bytes=len(data))
            return corrupted

        system.fault_corrupt_line = fault_corrupt_line  # type: ignore[method-assign]

    def _other_data(self) -> dict:
        """The run's observability tier and cycle count, not the process."""
        return {
            "obs_level": str(self.system.obs),
            "cycles": self.now(),
            "dropped": self.dropped,
            "total": self.total,
        }
