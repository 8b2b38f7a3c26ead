"""Discrete-event simulation kernel (substrate S1).

A compact, deterministic, generator-driven discrete-event simulation
kernel in the style of SimPy, purpose-built for cycle-level hardware
modelling.  The Eclipse paper's results come from a proprietary
cycle-accurate simulator; this package is the equivalent substrate.

Key classes
-----------
``Simulator``
    Owns simulation time (integer cycles) and the event queue.
``Event``
    A one-shot occurrence that processes wait on.
``Process``
    A generator that yields an event, resumed when it fires, or a
    cycle count, resumed that many cycles later.
``probe``
    Time-weighted statistics used by the performance-measurement
    infrastructure (Section 5.4 of the paper).

Determinism: ties in the event queue are broken by a monotonically
increasing sequence number, so a given program always replays the same
schedule.  Simulation time is integral (clock cycles); there is no
floating-point time drift.
"""

from repro.sim.events import Event
from repro.sim.faults import FaultInjector, FaultPlan, FaultStats, LossPlan, StallSpec
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.process import Process
from repro.sim.probe import Series, TimeWeightedStat, UtilizationProbe

__all__ = [
    "Event",
    "FaultInjector",
    "FaultPlan",
    "LossPlan",
    "FaultStats",
    "Process",
    "StallSpec",
    "Series",
    "SimulationError",
    "Simulator",
    "TimeWeightedStat",
    "UtilizationProbe",
]
