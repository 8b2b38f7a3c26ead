"""Transport multiplexing: the §6 "de-multiplexing in software" path.

A minimal MPEG-TS-like container: fixed 188-byte packets, each with a
4-byte header (sync byte 0x47, PID, continuity counter, payload
length), interleaving elementary streams — here the EMV1 video
bitstream and the ADPCM audio stream.  The demultiplexer runs as a
*software* task on the media processor, exactly as the paper maps it.

Functional API: :func:`ts_mux` / :func:`ts_demux`.
Kernels: :class:`DemuxKernel` (source holding the TS, fetched from
off-chip) and :class:`VldStreamKernel` — a VLD variant that receives
its elementary stream over an on-chip stream from the demux instead of
holding it as state, buffering bits internally like a hardware VLD's
input FIFO.  Behind a lossy network ingest (:mod:`repro.net`) both
also account for, and the VLD conceals, what the network damaged.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.kahn.graph import Direction, PortSpec
from repro.kahn.kernel import Kernel, KernelContext, StepOutcome
from repro.media.bitstream import BitReader, BitstreamError, ReadPastEndError
from repro.media.codec import (
    CodecParams,
    read_mb_syntax,
    read_picture_header,
    read_sequence_header,
    skipped_mb,
)
from repro.media.gop import FramePlan
from repro.media.tasks import CostModel, emit, reserve_all, vld_packets

__all__ = [
    "TS_PACKET",
    "TS_HEADER",
    "VIDEO_PID",
    "AUDIO_PID",
    "ts_mux",
    "ts_demux",
    "DemuxKernel",
    "VldStreamKernel",
]

TS_PACKET = 188
TS_HEADER = 4
_SYNC = 0x47
VIDEO_PID = 0x20
AUDIO_PID = 0x21
_PAYLOAD_MAX = TS_PACKET - TS_HEADER


def ts_mux(streams: Dict[int, bytes], interleave: int = 1) -> bytes:
    """Interleave elementary streams into TS packets.

    ``interleave`` packets are taken from each PID in turn (round-robin
    by PID order) until all streams are exhausted.  Short payloads are
    zero-padded (the header's length field says how much is real).
    """
    if not streams:
        raise ValueError("need at least one stream")
    for pid in streams:
        if not 0 <= pid <= 0x1FFF:
            raise ValueError(f"PID {pid} out of range")
    positions = {pid: 0 for pid in streams}
    continuity = {pid: 0 for pid in streams}
    out = bytearray()
    while any(positions[p] < len(streams[p]) for p in streams):
        for pid in sorted(streams):
            for _ in range(interleave):
                data = streams[pid]
                pos = positions[pid]
                if pos >= len(data):
                    continue
                chunk = data[pos : pos + _PAYLOAD_MAX]
                positions[pid] = pos + len(chunk)
                out.extend(struct.pack("<BHB", _SYNC, pid, len(chunk)))
                out.extend(chunk)
                out.extend(b"\x00" * (_PAYLOAD_MAX - len(chunk)))
                continuity[pid] += 1
    return bytes(out)


def ts_demux(ts: bytes) -> Dict[int, bytes]:
    """Split a TS back into its elementary streams."""
    if len(ts) % TS_PACKET:
        raise ValueError(f"TS length {len(ts)} is not a whole number of packets")
    out: Dict[int, bytearray] = {}
    for off in range(0, len(ts), TS_PACKET):
        sync, pid, length = struct.unpack_from("<BHB", ts, off)
        if sync != _SYNC:
            raise ValueError(f"lost TS sync at offset {off}: {sync:#x}")
        if length > _PAYLOAD_MAX:
            raise ValueError(f"bad payload length {length} at offset {off}")
        out.setdefault(pid, bytearray()).extend(
            ts[off + TS_HEADER : off + TS_HEADER + length]
        )
    return {pid: bytes(data) for pid, data in out.items()}


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------
class DemuxKernel(Kernel):
    """Software demultiplexer (a DSP-CPU task, §6).

    Holds the transport stream as task state (fetched from off-chip)
    and routes each packet's payload to the matching output port.
    Output framing: raw elementary-stream bytes (the consumers do their
    own packet/bit parsing).

    Behind a lossy ingest the stream is the recovered one: erased slots
    arrive as header + zero payload, so parsing never fails.  The
    kernel counts the ``lost_slots`` it routes and reports them, with
    the ingest's ``net_stats``, through ``degradation_stats()`` — when
    a slot was lost or ``report_always`` is set."""

    PORTS = (
        PortSpec("video_out", Direction.OUT),
        PortSpec("audio_out", Direction.OUT),
    )
    STATE_FIELDS = ("_offset", "packets_erased")

    def __init__(
        self,
        ts: bytes,
        cycles_per_packet: int = 60,
        lost_slots: Tuple[int, ...] = (),
        net_stats: Optional[Dict[str, int]] = None,
        report_always: bool = False,
    ):
        super().__init__()
        if len(ts) % TS_PACKET:
            raise ValueError("TS length must be a whole number of packets")
        self.ts = ts
        self.cycles_per_packet = cycles_per_packet
        self._lost = frozenset(lost_slots)
        self._net_stats = dict(net_stats or {})
        self._report_always = report_always
        self._offset = 0
        self.packets_erased = 0

    def step(self, ctx: KernelContext):
        if self._offset >= len(self.ts):
            return StepOutcome.FINISHED
        off = self._offset
        sync, pid, length = struct.unpack_from("<BHB", self.ts, off)
        if sync != _SYNC:
            raise BitstreamError(f"lost TS sync at offset {off}")
        payload = self.ts[off + TS_HEADER : off + TS_HEADER + length]
        port = {VIDEO_PID: "video_out", AUDIO_PID: "audio_out"}.get(pid)
        yield ctx.compute(self.cycles_per_packet)
        yield ctx.external_access(TS_PACKET, is_write=False)
        if port is not None and payload:
            sp = yield ctx.get_space(port, len(payload))
            if not sp:
                return StepOutcome.ABORTED
            yield ctx.write(port, 0, payload)
            yield ctx.put_space(port, len(payload))
        self._offset = off + TS_PACKET
        if off // TS_PACKET in self._lost:
            self.packets_erased += 1
        return StepOutcome.COMPLETED

    def degradation_stats(self) -> Optional[Dict]:
        if not self._report_always and not self._lost:
            return None
        out: Dict = {"kind": "transport", "packets_erased": self.packets_erased}
        if self._net_stats:
            out["net"] = {k: self._net_stats[k] for k in sorted(self._net_stats)}
        return out


class VldStreamKernel(Kernel):
    """VLD receiving its elementary stream over an on-chip stream.

    Unlike :class:`repro.media.tasks.VldKernel` (which owns the whole
    bitstream, Figure 8 style), this variant consumes ES bytes from the
    demultiplexer and buffers them in an internal bit FIFO — the
    fully-streaming decode front end.  Emits the same coefficient and
    motion-vector packets, so the downstream pipeline is unchanged.

    The sequence header must be parsed before the GOP plan is known, so
    construction takes the expected ``params``/``num_frames`` (the CPU
    knows them — it configured the whole application); the header is
    still parsed and *verified* from the stream.

    Behind a lossy ingest the VLD survives erasures by concealing whole
    frames.  ``damaged_frames``/``frame_spans``/``header_end_bit`` come
    from the build-time damage mapping (:mod:`repro.media.conceal`).  A
    damaged frame's bits are pulled in and skipped unparsed, preserving
    the stream-consumption pattern of a real decode, and each of its
    macroblocks is replaced by :func:`~repro.media.codec.skipped_mb`:
    a motion-compensated repeat of the reference in P/B frames (the
    classic slice-loss concealment), flat intra in I frames.  A damaged
    sequence header (``header_damaged``) is skipped: the configured
    parameters stand in for it (N502).  ``conceal_budget`` is the
    acceptable concealed fraction of the coded frames; beyond it
    ``degradation_stats()`` carries an N501 diagnosis.  With nothing
    damaged it reports nothing unless ``report_always`` is set.
    """

    PORTS = (
        PortSpec("es_in", Direction.IN),
        PortSpec("coef_out", Direction.OUT),
        PortSpec("mv_out", Direction.OUT),
    )
    STATE_FIELDS = (
        "_frame_ptr", "_mb_ptr", "_fifo", "_bitpos", "_dropped_bits",
        "_header_checked", "mbs_concealed", "_frames_done",
    )

    #: ES bytes pulled per refill
    REFILL = 64

    def __init__(
        self,
        params: CodecParams,
        num_frames: int,
        cost: Optional[CostModel] = None,
        damaged_frames: Iterable[int] = (),
        frame_spans: Sequence[Tuple[int, int]] = (),
        header_end_bit: int = 0,
        header_damaged: bool = False,
        conceal_budget: float = 0.5,
        report_always: bool = False,
    ):
        super().__init__()
        self.cost = cost or CostModel()
        self.params = params
        self.num_frames = num_frames
        self._plans: List[FramePlan] = params.gop().coded_order(num_frames)
        self._damaged = frozenset(damaged_frames)
        self._spans = tuple(frame_spans)
        self._header_end_bit = header_end_bit
        self._header_damaged = header_damaged
        if self._damaged and len(self._spans) < len(self._plans):
            raise ValueError("frame_spans must cover every coded frame")
        if not 0.0 <= conceal_budget <= 1.0:
            raise ValueError(f"conceal_budget must be in [0, 1], got {conceal_budget}")
        self.conceal_budget = conceal_budget
        self._report_always = report_always
        self._frame_ptr = 0
        self._mb_ptr = 0
        self._fifo = bytearray()
        self._bitpos = 0  # bit offset into _fifo
        self._dropped_bits = 0  # bits compacted out of _fifo so far
        self._header_checked = False
        self.mbs_concealed = 0
        self._frames_done: Set[int] = set()

    # -- internal bit FIFO --------------------------------------------------
    def _compact(self) -> None:
        drop = self._bitpos // 8
        if drop:
            del self._fifo[:drop]
            self._bitpos -= drop * 8
            self._dropped_bits += drop * 8

    def _try_parse(self):
        """Attempt to parse the next unit from the FIFO; returns the
        parse result or None if more bytes are needed."""
        r = BitReader(bytes(self._fifo))
        r._pos = self._bitpos
        try:
            if not self._header_checked:
                read_sequence_header(r, (self.params, self.num_frames))
                return ("header", r._pos)
            plan = self._plans[self._frame_ptr]
            if self._mb_ptr == 0:
                read_picture_header(r, plan)
            mb = read_mb_syntax(r, self._mb_ptr, plan.frame_type, self.params.half_pel)
            return ("mb", r._pos, mb, plan)
        except ReadPastEndError:
            return None  # need more ES bytes

    def _conceal(self):
        """The damaged unit's stand-in, shaped like a :meth:`_try_parse`
        result, or None until the unit's whole span is buffered; the
        FIFO skips to the span's end after its last macroblock."""
        if not self._header_checked:
            end = self._header_end_bit - self._dropped_bits
            return None if end > len(self._fifo) * 8 else ("header", end)
        plan = self._plans[self._frame_ptr]
        end = self._spans[self._frame_ptr][1] - self._dropped_bits
        if end > len(self._fifo) * 8:
            return None
        mb = skipped_mb(self._mb_ptr, plan.frame_type, self.params.half_pel)
        last = self._mb_ptr == self.params.mbs_per_frame - 1
        return ("mb", end if last else self._bitpos, mb, plan)

    def step(self, ctx: KernelContext):
        if self._frame_ptr >= len(self._plans):
            return StepOutcome.FINISHED
        if self._header_checked:
            damaged = self._frame_ptr in self._damaged
        else:
            damaged = self._header_damaged
        parsed = self._conceal() if damaged else self._try_parse()
        if parsed is None:
            # refill the bit FIFO from the ES stream
            sp = yield ctx.get_space("es_in", self.REFILL)
            n = self.REFILL if sp else sp.available
            if not sp and not sp.eos:
                return StepOutcome.ABORTED
            if n == 0:
                raise BitstreamError("elementary stream ended mid-parse")
            yield ctx.get_space("es_in", n)
            data = yield ctx.read("es_in", 0, n)
            yield ctx.put_space("es_in", n)
            yield ctx.compute(4 + n // 8)
            self._fifo.extend(data)
            return StepOutcome.COMPLETED
        if parsed[0] == "header":
            if damaged:
                yield ctx.compute(self.cost.vld_per_mb)
            self._bitpos = parsed[1]
            self._header_checked = True
            self._compact()
            return StepOutcome.COMPLETED
        _tag, new_pos, mb, plan = parsed
        bits = 0 if damaged else new_pos - self._bitpos
        cycles, coef, mv = vld_packets(mb, plan, self.params, self.cost, bits)
        yield ctx.compute(cycles)
        ok = yield from reserve_all(ctx, [("coef_out", len(coef)), ("mv_out", len(mv))])
        if not ok:
            return StepOutcome.ABORTED
        yield from emit(ctx, "coef_out", coef)
        yield from emit(ctx, "mv_out", mv)
        # commit parser state
        self._bitpos = new_pos
        self._compact()
        if damaged:
            self.mbs_concealed += 1
            self._frames_done.add(self._frame_ptr)
        self._mb_ptr += 1
        if self._mb_ptr == self.params.mbs_per_frame:
            self._mb_ptr = 0
            self._frame_ptr += 1
        return StepOutcome.COMPLETED

    # -- degradation accounting ---------------------------------------------
    def degradation_stats(self) -> Optional[Dict]:
        concealed = len(self._frames_done)
        if not self._report_always and not concealed and not self._header_damaged:
            return None
        total = len(self._plans)
        over = total > 0 and concealed > self.conceal_budget * total
        out: Dict = {
            "kind": "video",
            "frames_total": total,
            "frames_decoded": total - concealed,
            "frames_concealed": concealed,
            "mbs_concealed": self.mbs_concealed,
            "header_concealed": bool(self._header_damaged),
            "conceal_budget": self.conceal_budget,
            "over_budget": over,
        }
        diagnoses = []
        if over:
            diagnoses.append({
                "rule": "N501",
                "message": (
                    f"{concealed}/{total} frames concealed exceeds the "
                    f"budget of {self.conceal_budget:g}"
                ),
            })
        if self._header_damaged:
            diagnoses.append({
                "rule": "N502",
                "message": "sequence header reconstructed from configuration",
            })
        if diagnoses:
            out["diagnoses"] = diagnoses
        return out
