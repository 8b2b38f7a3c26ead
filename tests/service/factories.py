"""Module-level run factories for the service tests.

The single-flight and fault-path tests need to count **actual
executions** across process boundaries — a worker in the pool cannot
bump a counter in the test process, but it can append a line to a file
opened with ``O_APPEND`` (atomic for small writes on every platform we
run on).  The factories here do exactly that and then delegate to the
canonical workloads, so the simulated results stay byte-comparable to
the plain runner's.

Everything is module level and importable as
``tests.service.factories:<name>``, which is what lets the specs cross
the wire and the process pool alike.
"""

from __future__ import annotations

import os

from repro.sim.faults import corrupt_state
from repro.workloads import conformance_run, quickstart_run

__all__ = ["counted_quickstart_run", "counted_conformance_run", "failing_run",
           "corrupted_run"]

#: environment variable naming the marker file executions append to
MARKER_ENV = "REPRO_SERVICE_TEST_MARKER"


def _mark(tag: str) -> None:
    path = os.environ.get(MARKER_ENV)
    if not path:
        return
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, f"{tag}:{os.getpid()}\n".encode("utf-8"))
    finally:
        os.close(fd)


def execution_count(path: str, tag: str = "") -> int:
    """How many executions appended to ``path`` (optionally only those
    with the given tag)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln]
    except FileNotFoundError:
        return 0
    if tag:
        lines = [ln for ln in lines if ln.startswith(f"{tag}:")]
    return len(lines)


def counted_quickstart_run(tag: str = "run", payload_len: int = 512, **kwargs):
    """quickstart_run that records each actual execution.  ``tag``
    distinguishes submissions in the marker file (and, being a kwarg,
    also gives distinct submissions distinct cache keys)."""
    _mark(tag)
    return quickstart_run(payload_len=payload_len, **kwargs)


def counted_conformance_run(tag: str = "run", payload_len: int = 384, **kwargs):
    """conformance_run (checkpointable supervised workload) with the
    same execution accounting."""
    _mark(tag)
    return conformance_run(payload_len=payload_len, **kwargs)


def failing_run(tag: str = "fail", message: str = "synthetic failure"):
    """A factory that always raises — the service must report the
    failure to every waiter and must never cache it."""
    _mark(tag)
    raise RuntimeError(message)


def corrupted_run(mode="task-miscount", **kwargs):
    """A conformance run whose system is born corrupted: the first
    checkpoint boundary's invariant monitors must catch it."""
    system, graph = conformance_run(**kwargs)
    system.configure(graph)
    corrupt_state(system, mode)
    return system, graph
