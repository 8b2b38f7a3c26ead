"""The deterministic ingest session: sender → lossy link → receiver.

:class:`NetIngest` runs an integer-tick, event-driven simulation of
one transport session: the packetized TS is paced onto the
:class:`~repro.net.link.LossyLink` (rate variation stretches the
gaps), arrivals feed the receiver stack, missing data packets are
NACKed with exponential backoff, single losses per FEC group are
XOR-recovered, and packets still missing ``deadline`` ticks after the
last send are *declared lost* — the session always terminates, and
surviving erasures flow downstream as concealment work instead of a
stall.

Everything is deterministic: one heap ordered by ``(tick, push
counter)``, one RNG inside the link.  The ingest runs at
workload-build time, before the cycle-level simulation starts, so the
recovered stream (and therefore the decode schedule) is a pure
function of ``(ts, plan)``.

Observability: pass a :class:`repro.obs.spans.SpanRecorder` (ideally
with ``clock=lambda: 0`` replaced by the ingest's tick clock via
:func:`tick_recorder`) to get a Perfetto-loadable timeline of sends,
recoveries and declared losses; pass a
:class:`repro.obs.metrics.MetricsRegistry` to have the final counters
published under ``net.*`` names.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.media.transport import TS_HEADER, TS_PACKET
from repro.net.link import BASE_LATENCY, LossyLink
from repro.net.packets import (
    PACKET_DATA,
    PACKET_PARITY,
    NetPacket,
    packetize,
    slot_table,
)
from repro.net.receiver import FecGroups, JitterBuffer, RtxManager
from repro.sim.faults import LossPlan

__all__ = ["NetStats", "IngestResult", "NetIngest", "ingest", "tick_recorder"]

#: uplink latency for a NACK to reach the sender, in ticks
NACK_LATENCY = 2


def tick_recorder(capacity: int = 100_000):
    """A :class:`~repro.obs.spans.SpanRecorder` whose clock is the
    ingest tick — deterministic timelines, byte-comparable exports.
    Attach it via :class:`NetIngest`, which drives the tick."""
    from repro.obs.spans import SpanRecorder

    holder = {"now": 0}
    rec = SpanRecorder(capacity=capacity, clock=lambda: holder["now"],
                       process_name="repro.net")
    rec._tick_holder = holder
    return rec


@dataclass
class NetStats:
    """What one ingest session did (all deterministic counters)."""

    data_packets: int = 0
    parity_packets: int = 0
    rtx_packets: int = 0
    packets_dropped: int = 0
    packets_duplicated: int = 0
    packets_jittered: int = 0
    packets_received: int = 0
    duplicates_ignored: int = 0
    packets_late: int = 0
    nacks_sent: int = 0
    fec_recovered: int = 0
    rtx_recovered: int = 0
    rtx_gave_up: int = 0
    slots_lost: int = 0
    jitter_max_depth: int = 0
    ticks: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            name: getattr(self, name)
            for name in sorted(self.__dataclass_fields__)
        }

    def to_metrics(self, registry) -> None:
        """Publish the counters as ``net.*`` metrics (stable names,
        sorted canonical form — see :mod:`repro.obs.metrics`)."""
        for name, value in self.to_dict().items():
            registry.counter(f"net.{name}").inc(value)


@dataclass(frozen=True)
class IngestResult:
    """Outcome of one ingest session.

    ``recovered_ts`` preserves slot positions: a slot the receiver
    could not recover keeps its 4-byte header (assumed recoverable
    out-of-band, e.g. from the FEC group's surviving headers — see
    docs/networking.md) with a zeroed payload, so downstream
    elementary-stream offsets stay aligned and the erasure maps to
    exact per-PID byte ranges (:meth:`erased_ranges`).
    """

    original_ts: bytes
    recovered_ts: bytes
    lost_slots: Tuple[int, ...]
    plan: LossPlan
    stats: NetStats = field(compare=False)

    @property
    def loss_active(self) -> bool:
        """True when the plan could disturb the stream at all — the
        switch for degradation accounting downstream."""
        return self.plan.any_loss()

    def erased_ranges(self) -> Dict[int, Tuple[Tuple[int, int], ...]]:
        """Lost slots as per-PID elementary-stream byte ranges."""
        table = slot_table(self.original_ts)
        out: Dict[int, List[Tuple[int, int]]] = {}
        for slot in self.lost_slots:
            pid, es_off, length = table[slot]
            if length:
                out.setdefault(pid, []).append((es_off, es_off + length))
        return {pid: tuple(ranges) for pid, ranges in sorted(out.items())}


class NetIngest:
    """One ingest session; :meth:`run` is a pure function of its args."""

    def __init__(
        self,
        ts: bytes,
        plan: LossPlan,
        recorder=None,
        metrics=None,
    ):
        if len(ts) % TS_PACKET:
            raise ValueError(f"TS length {len(ts)} is not a whole number of slots")
        self.ts = ts
        self.plan = plan
        self.recorder = recorder
        self.metrics = metrics

    # ------------------------------------------------------------------
    def _tick(self, t: int) -> None:
        holder = getattr(self.recorder, "_tick_holder", None)
        if holder is not None:
            holder["now"] = t

    def _instant(self, name: str, **args) -> None:
        if self.recorder is not None:
            self.recorder.instant(name, cat="net", thread="net", **args)

    # ------------------------------------------------------------------
    def run(self) -> IngestResult:
        plan = self.plan
        stats = NetStats()
        n_slots = len(self.ts) // TS_PACKET
        if not plan.any_loss():
            # clean link: the transport is a no-op by construction
            stats.data_packets = n_slots
            if self.metrics is not None:
                stats.to_metrics(self.metrics)
            return IngestResult(self.ts, self.ts, (), plan, stats)

        packets = packetize(self.ts, plan.fec_group)
        link = LossyLink(plan)
        jbuf = JitterBuffer()
        rtx = RtxManager(plan)
        group_slots: Dict[int, List[int]] = {}
        seq_of_slot: Dict[int, int] = {}
        packet_of_seq: Dict[int, NetPacket] = {}
        for p in packets:
            packet_of_seq[p.seq] = p
            if p.kind == PACKET_DATA:
                seq_of_slot[p.slot] = p.seq
                if p.group >= 0:
                    group_slots.setdefault(p.group, []).append(p.slot)
        fec = FecGroups(group_slots)
        stats.data_packets = sum(1 for p in packets if p.kind == PACKET_DATA)
        stats.parity_packets = len(packets) - stats.data_packets

        received: Dict[int, bytes] = {}  # slot -> payload
        heap: List[Tuple[int, int, Tuple]] = []
        push_count = 0

        def push(t: int, ev: Tuple) -> None:
            nonlocal push_count
            heapq.heappush(heap, (t, push_count, ev))
            push_count += 1

        # pace the initial sends; NACK checks are armed per data packet
        # at its nominal arrival + rtx_timeout (tail losses included)
        t = 0
        for p in packets:
            push(t, ("send", p, False))
            if p.kind == PACKET_DATA:
                push(t + BASE_LATENCY + plan.rtx_timeout, ("check", p.seq))
            t += link.pacing_gap()
        deadline_abs = t + plan.deadline

        def fill_slot(slot: int, payload: bytes, via: str, now: int) -> None:
            received[slot] = payload
            seq = seq_of_slot[slot]
            rtx.on_recovered(seq)
            if via == "fec":
                stats.fec_recovered += 1
                self._instant("fec_recover", slot=slot, tick=now)
            elif rtx.attempts(seq) > 0:
                stats.rtx_recovered += 1
                self._instant("rtx_recover", slot=slot, tick=now)

        last_tick = 0
        while heap:
            now, _, ev = heapq.heappop(heap)
            last_tick = max(last_tick, now)
            self._tick(now)
            kind = ev[0]
            if kind == "send":
                _, pkt, is_rtx = ev
                if is_rtx:
                    if now > deadline_abs:
                        continue  # the player has moved on
                    stats.rtx_packets += 1
                for at in link.deliveries(now):
                    push(at, ("arrive", pkt))
            elif kind == "arrive":
                (_, pkt) = ev
                stats.packets_received += 1
                if now > deadline_abs:
                    stats.packets_late += 1
                    continue
                if not jbuf.push(pkt.seq):
                    continue
                if pkt.kind == PACKET_DATA:
                    if pkt.slot not in received:
                        fill_slot(pkt.slot, pkt.payload, "arrival", now)
                        fec.add_data(pkt.group, pkt.slot, pkt.payload)
                        rec = fec.try_recover(pkt.group)
                        if rec is not None and rec[0] not in received:
                            fill_slot(rec[0], rec[1], "fec", now)
                    else:
                        fec.add_data(pkt.group, pkt.slot, pkt.payload)
                else:
                    fec.add_parity(pkt.group, pkt.payload)
                    rec = fec.try_recover(pkt.group)
                    if rec is not None and rec[0] not in received:
                        fill_slot(rec[0], rec[1], "fec", now)
            elif kind == "check":
                (_, seq) = ev
                pkt = packet_of_seq[seq]
                recovered = pkt.slot in received
                if now > deadline_abs:
                    if not recovered:
                        rtx.on_recovered(seq)  # stop checking; declared lost
                    continue
                action, delay = rtx.on_timeout(seq, recovered)
                if action == "nack":
                    stats.nacks_sent += 1
                    self._instant("nack", seq=seq, attempt=rtx.attempts(seq),
                                  tick=now)
                    push(now + NACK_LATENCY, ("send", pkt, True))
                    push(now + delay, ("check", seq))

        stats.packets_dropped = link.dropped
        stats.packets_duplicated = link.duplicated
        stats.packets_jittered = link.jittered
        stats.duplicates_ignored = jbuf.duplicates
        stats.jitter_max_depth = jbuf.max_depth
        stats.rtx_gave_up = rtx.gave_up
        stats.ticks = last_tick

        lost = tuple(s for s in range(n_slots) if s not in received)
        stats.slots_lost = len(lost)
        out = bytearray()
        for slot in range(n_slots):
            if slot in received:
                out.extend(received[slot])
            else:
                off = slot * TS_PACKET
                out.extend(self.ts[off : off + TS_HEADER])
                out.extend(b"\x00" * (TS_PACKET - TS_HEADER))
                self._instant("slot_lost", slot=slot)
        if self.metrics is not None:
            stats.to_metrics(self.metrics)
        return IngestResult(self.ts, bytes(out), lost, plan, stats)


def ingest(ts: bytes, plan: LossPlan, recorder=None, metrics=None) -> IngestResult:
    """Convenience one-call form of :class:`NetIngest`."""
    return NetIngest(ts, plan, recorder=recorder, metrics=metrics).run()
