"""Deterministic lossy network ingest in front of the demux.

The paper's set-top scenarios assume a clean transport stream in
memory; this package models the front half of a conferencing/streaming
stack instead (ROADMAP item 3): the TS sliced into sequence-numbered
packets with XOR-parity FEC groups (:mod:`repro.net.packets`), a
seeded lossy link (drop/duplicate/reorder/jitter/rate-variation,
:mod:`repro.net.link`), and a receiver stack — jitter buffer, NACK
retransmission manager with exponential backoff, FEC recovery
(:mod:`repro.net.receiver`) — reassembling the stream for decode
(:mod:`repro.net.ingest`).

Everything is a pure function of ``(ts, LossPlan)``: one
``random.Random(plan.seed)`` drives every link decision in a fixed
event order, so the same seed reproduces the same recovered stream,
the same erasures and the same statistics on any machine.  The ingest runs as a deterministic pre-pass at
workload-build time; its surviving erasures flow into the decode graph
as concealment work, never as a crash: :mod:`repro.media.conceal` maps
them onto frames and audio blocks, and the A/V front-end kernels
(:mod:`repro.media.transport`, :mod:`repro.media.audio`) conceal them.

See docs/networking.md for the full story.
"""

from repro.net.ingest import IngestResult, NetIngest, NetStats, ingest, tick_recorder
from repro.net.link import LossyLink
from repro.net.packets import (
    PACKET_DATA,
    PACKET_PARITY,
    NetPacket,
    packetize,
    slot_table,
    xor_parity,
)
from repro.net.receiver import FecGroups, JitterBuffer, RtxManager

__all__ = [
    "NetPacket",
    "PACKET_DATA",
    "PACKET_PARITY",
    "packetize",
    "slot_table",
    "xor_parity",
    "LossyLink",
    "JitterBuffer",
    "RtxManager",
    "FecGroups",
    "NetIngest",
    "NetStats",
    "IngestResult",
    "ingest",
    "tick_recorder",
]
