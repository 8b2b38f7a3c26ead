"""Crash tolerance for long runs: checkpoint/restore, checkpointed
execution, and online invariant monitors.

Eclipse keeps all synchronization state in explicit local structures
(stream/task tables, cyclic buffers in shared SRAM), so the whole
system state is capturable and its invariants mechanically checkable.
This package exploits exactly that property:

* :mod:`repro.resilience.snapshot` — versioned, checksummed
  :class:`SystemSnapshot` files; ``restore(snapshot).run()`` is
  byte-identical to an uninterrupted run.
* :mod:`repro.resilience.monitors` — runtime invariant checks (stable
  IDs ``I101``–``I105``) raising :class:`InvariantViolation` naming
  ``task.port``.
* :mod:`repro.resilience.supervisor` — ``run_checkpointed``, which
  runs one sweep point as a checkpointed call on the runner's shared
  workers, which report progress over their pipes; a crashed, hung or
  timed-out attempt restarts from its checkpoint.  The sweep service
  runs every checkpointed execution through it, so whole sweeps resume
  across process restarts from their result store.

See ``docs/resilience.md`` for the file formats and the invariant
catalogue.
"""

from repro.resilience.monitors import (
    MONITORS,
    InvariantViolation,
    Monitor,
    MonitorSuite,
    check_system,
)
from repro.resilience.snapshot import (
    SNAPSHOT_SCHEMA,
    SnapshotError,
    SystemSnapshot,
    capture,
    restore,
)

__all__ = [
    "MONITORS",
    "InvariantViolation",
    "Monitor",
    "MonitorSuite",
    "check_system",
    "SNAPSHOT_SCHEMA",
    "SnapshotError",
    "SystemSnapshot",
    "capture",
    "restore",
]
