"""Per-layer metrics: exact counts read from a finished system, and
host-time attribution computed from a traced run's spans.

Counts come from the program's own counters after ``run()`` returns,
so an untraced run reports them too and the traced run can be checked
against it.  Host times come only from spans (:mod:`perfbench.tracing`).
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from perfbench.stats import median
from perfbench.tracing import SHELL_PRIMITIVES

__all__ = [
    "system_counts",
    "payload_counts",
    "count_ratios",
    "host_times",
    "call_checks",
    "median_of",
]


def system_counts(system) -> Dict[str, int]:
    """The exact counts of one finished run, from its own counters;
    each must repeat exactly for one seed.

    ``sim.events`` is the simulator's schedule sequence number: every
    event ever put on the queue.  ``core.cache_probes`` counts first
    probes of the read cache (one per cache line a Read touches).
    """
    shells = list(system.shells.values())
    tasks = [t for s in shells for t in s.task_table]
    rows = [r for s in shells for r in s.stream_table]
    buses = (system.read_bus, system.write_bus, system.dram.bus)
    injector = system.fault_injector
    return {
        "cycles": system.sim.now,
        "sim.events": system.sim._seq,
        "core.gettask_ops": sum(s.gettask_ops for s in shells),
        "core.getspace_ops": sum(s.getspace_ops for s in shells),
        "core.putspace_ops": sum(s.putspace_ops for s in shells),
        "core.messages_delivered": sum(s.messages_delivered for s in shells),
        "core.cache_probes": sum(s.read_hits + s.read_misses for s in shells),
        "core.read_hits": sum(s.read_hits for s in shells),
        "core.steps": sum(c.steps_total for c in system.coprocessors.values()),
        "core.steps_completed": sum(t.steps_completed for t in tasks),
        "core.steps_aborted": sum(t.steps_aborted for t in tasks),
        "core.getspace_granted": sum(r.granted_getspace for r in rows),
        "core.getspace_denied": sum(r.denied_getspace for r in rows),
        "core.idle_wait_cycles": sum(s.idle_wait_cycles for s in shells),
        "core.stall_cycles": sum(t.stall_cycles for t in tasks),
        "core.messages_sent": system.fabric.messages_sent,
        "core.messages_dropped": system.fabric.messages_dropped,
        "faults.injected": injector.stats.total_injected() if injector else 0,
        "core.retries_sent": sum(s.retries_sent for s in shells),
        "core.watchdog_fires": sum(s.watchdog_fires for s in shells),
        "core.recoveries": sum(s.recoveries for s in shells),
        "core.corruptions_detected": sum(s.corruptions_detected for s in shells),
        "hw.bus_grants": sum(b.stats.transactions for b in buses),
        "hw.bus_wait_cycles": sum(b.stats.wait_cycles for b in buses),
        "hw.read_bus_busy_cycles": system.read_bus.stats.busy_cycles,
        "hw.dram_bytes": system.dram.bytes_read + system.dram.bytes_written,
    }


def payload_counts(result) -> Dict[str, int]:
    """Exact counts one served sweep answer carries in its payload (a
    :class:`~repro.runner.RunResult` of a lossy conferencing point)."""
    m = result.metrics
    deg = (m.get("degradation") or {}).get("tasks", {})
    net = deg.get("demux", {}).get("net", {})
    vld = deg.get("vld", {})
    return {
        "cycles": result.cycles,
        "core.messages_sent": m.get("messages_sent", 0),
        "core.steps_completed": sum(t["steps_completed"] for t in m["tasks"].values()),
        "core.steps_aborted": sum(t["steps_aborted"] for t in m["tasks"].values()),
        "net.packets": (net.get("data_packets", 0) + net.get("parity_packets", 0)
                        + net.get("rtx_packets", 0)),
        "net.fec_recovered": net.get("fec_recovered", 0),
        "net.rtx_recovered": net.get("rtx_recovered", 0),
        "net.slots_lost": net.get("slots_lost", 0),
        "net.frames_concealed": vld.get("frames_concealed", 0),
    }


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def count_ratios(c: Mapping[str, int]) -> Dict[str, float]:
    """The reported count metrics (and exact ratios) from summed counts."""
    cycles = c["cycles"]
    return {
        "sim.events": c["sim.events"],
        "sim.events_per_kcycle": _frac(c["sim.events"], cycles / 1000.0),
        "core.cache_probes": c["core.cache_probes"],
        "core.steps": c["core.steps"],
        "core.getspace_grant_frac": _frac(
            c["core.getspace_granted"],
            c["core.getspace_granted"] + c["core.getspace_denied"]),
        "core.read_hit_frac": _frac(c["core.read_hits"], c["core.cache_probes"]),
        "core.step_useful_frac": _frac(
            c["core.steps_completed"],
            c["core.steps_completed"] + c["core.steps_aborted"]),
        "core.idle_wait_kcycles": c["core.idle_wait_cycles"] / 1000.0,
        "core.stall_kcycles": c["core.stall_cycles"] / 1000.0,
        "core.messages_sent": c["core.messages_sent"],
        "core.messages_dropped": c["core.messages_dropped"],
        "faults.injected": c["faults.injected"],
        "core.retries_sent": c["core.retries_sent"],
        "core.watchdog_fires": c["core.watchdog_fires"],
        "core.recoveries": c["core.recoveries"],
        "core.corruptions_detected": c["core.corruptions_detected"],
        "hw.bus_grants": c["hw.bus_grants"],
        "hw.bus_wait_kcycles": c["hw.bus_wait_cycles"] / 1000.0,
        "hw.read_bus_busy_frac": _frac(c["hw.read_bus_busy_cycles"], cycles),
        "hw.dram_bytes": c["hw.dram_bytes"],
    }


def host_times(self_ns: Mapping[str, int], total_ns: Mapping[str, int],
               calls: Mapping[str, int], c: Mapping[str, int]) -> Dict[str, float]:
    """Host-time metrics of one traced run (or one traced sweep pass).

    ``self_ns``/``total_ns`` are per span name; ``calls`` counts calls
    (not resumes) per name; ``c`` holds the run's summed exact counts.
    """
    def self_s(*names: str) -> float:
        return sum(self_ns.get(n, 0) for n in names) / 1e9

    shell_names = [f"core.shell.{p}" for p in SHELL_PRIMITIVES] + ["core.shell.deliver"]
    shell_calls = sum(calls.get(n, 0) for n in shell_names)
    sim_s = self_s("sim.run")
    shell_s = self_s(*shell_names)
    bus_s = self_s("hw.bus.transfer")
    kernel_s = self_s("kernel.step")
    return {
        "sim.self_s": sim_s,
        "sim.us_per_event": _frac(sim_s * 1e6, c["sim.events"]),
        "core.shell_ops": shell_calls,
        "core.shell_self_s": shell_s,
        "core.us_per_shell_op": _frac(shell_s * 1e6, shell_calls),
        "core.fabric_self_s": self_s("core.fabric.send"),
        "hw.bus_self_s": bus_s,
        "hw.us_per_grant": _frac(bus_s * 1e6, c["hw.bus_grants"]),
        "kernel.self_s": kernel_s,
        "kernel.us_per_step": _frac(kernel_s * 1e6, c["core.steps"]),
        "obs.record_s": total_ns.get("obs.record_committed", 0) / 1e9,
    }


def call_checks(calls: Mapping[str, int], c: Mapping[str, int]) -> List[str]:
    """Where the wrappers' call counts disagree with the program's own
    counters — a wrapper that missed calls would misattribute time."""
    pairs = (
        ("core.shell.get_task", "core.gettask_ops"),
        ("core.shell.get_space", "core.getspace_ops"),
        ("core.shell.put_space", "core.putspace_ops"),
        ("core.shell.deliver", "core.messages_delivered"),
        ("core.fabric.send", "core.messages_sent"),
        ("hw.bus.transfer", "hw.bus_grants"),
        ("kernel.step", "core.steps"),
    )
    return [
        f"{span} called {calls.get(span, 0)}x but {count} = {c[count]}"
        for span, count in pairs
        if calls.get(span, 0) != c[count]
    ]


def median_of(dicts: List[Mapping[str, float]]) -> Dict[str, float]:
    """Per-key median over a list of same-keyed dicts."""
    return {k: median([d[k] for d in dicts]) for k in dicts[0]}
