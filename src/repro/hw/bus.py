"""Arbitrated buses.

The first Eclipse instance (paper §6) deploys separate read and write
data buses, each 128 bits at 150 MHz, between the coprocessor shells
and the shared SRAM.  A :class:`Bus` models one of them: masters
request the bus, occupy it for ``setup_latency + ceil(n / width)``
cycles, and release.  Arbitration is FIFO with optional priorities —
with single-outstanding-transaction masters (our shells) FIFO equals
round-robin fairness.  The arbiter is a busy flag plus a
(priority, arrival)-sorted wait list of grant events; a master that
finds the bus free and nobody waiting takes it without an event.

The same class models the off-chip system-bus port used by the MC/ME
and VLD coprocessors, with a larger setup latency (DRAM access), and
the CPU of the centralized-sync baseline, which every sync operation
occupies with a zero-byte transfer for the handler's cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Tuple

from repro.sim import Event, Simulator

__all__ = ["Bus", "BusStats"]


@dataclass
class BusStats:
    """Aggregate traffic counters, per bus."""

    transactions: int = 0
    bytes_transferred: int = 0
    busy_cycles: int = 0
    wait_cycles: int = 0

    def utilization(self, elapsed: int) -> float:
        return self.busy_cycles / elapsed if elapsed > 0 else 0.0


class Bus:
    """One arbitrated data bus.

    Parameters
    ----------
    width_bytes:
        datapath width; a transaction moves this many bytes per cycle.
    setup_latency:
        fixed cycles per transaction (arbitration + address phase; for
        the off-chip port this includes DRAM access latency).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "bus",
        width_bytes: int = 16,
        setup_latency: int = 2,
    ):
        if width_bytes < 1:
            raise ValueError(f"width_bytes must be >= 1, got {width_bytes}")
        if setup_latency < 0:
            raise ValueError(f"setup_latency must be >= 0, got {setup_latency}")
        self.sim = sim
        self.name = name
        self.width_bytes = width_bytes
        self.setup_latency = setup_latency
        self._busy = False
        #: (priority, arrival seq, grant event), kept sorted: lower
        #: priority values first, FIFO within one priority
        self._waiting: List[Tuple[int, int, Event]] = []
        self._arrivals = 0
        self.stats = BusStats()
        #: per-master byte counters (key: master name)
        self.per_master_bytes: Dict[str, int] = {}

    def occupancy_cycles(self, n_bytes: int) -> int:
        """Cycles one transaction of ``n_bytes`` occupies the bus."""
        beats = -(-n_bytes // self.width_bytes)  # ceil division
        return self.setup_latency + beats

    def transfer(self, n_bytes: int, master: str = "", priority: int = 0) -> Generator:
        """Process-style transaction: ``yield from bus.transfer(...)``.

        Blocks (simulated) until the bus is granted, occupies it for the
        transaction duration, records stats, then releases.  Even an
        uncontended request round-trips through the queue (a zero-cycle
        sleep), so every grant resumes its master in (time, priority,
        sequence) order.
        """
        if n_bytes < 0:
            raise ValueError(f"n_bytes must be >= 0, got {n_bytes}")
        sim = self.sim
        t_request = sim.now
        if not self._busy and not self._waiting:
            self._busy = True
            yield 0
        else:
            grant = Event(sim)
            self._arrivals += 1
            entry = (priority, self._arrivals, grant)
            waiting = self._waiting
            idx = len(waiting)
            while idx > 0 and waiting[idx - 1][:2] > entry[:2]:
                idx -= 1
            waiting.insert(idx, entry)
            yield grant
        stats = self.stats
        stats.wait_cycles += sim.now - t_request
        cycles = self.occupancy_cycles(n_bytes)
        yield cycles
        # release: hand the bus to the next waiter
        if self._waiting:
            self._waiting.pop(0)[2].succeed(None)
        else:
            self._busy = False
        stats.transactions += 1
        stats.bytes_transferred += n_bytes
        stats.busy_cycles += cycles
        if master:
            per = self.per_master_bytes
            per[master] = per.get(master, 0) + n_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Bus {self.name!r} {self.width_bytes}B wide, {self.stats.transactions} txns>"
