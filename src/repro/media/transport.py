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
input FIFO.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from repro.kahn.graph import Direction, PortSpec
from repro.kahn.kernel import Kernel, KernelContext, StepOutcome
from repro.media.bitstream import BitReader, BitstreamError, ReadPastEndError
from repro.media.codec import CodecParams, SYNC_MARKER, read_mb_syntax
from repro.media.gop import FramePlan
from repro.media.packets import HEADER_SIZE, header_from_mb, pack_coef_payload
from repro.media.tasks import CostModel, VldKernel, emit, reserve_all

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
    own packet/bit parsing)."""

    PORTS = (
        PortSpec("video_out", Direction.OUT),
        PortSpec("audio_out", Direction.OUT),
    )

    def __init__(self, ts: bytes, cycles_per_packet: int = 60):
        super().__init__()
        if len(ts) % TS_PACKET:
            raise ValueError("TS length must be a whole number of packets")
        self.ts = ts
        self.cycles_per_packet = cycles_per_packet
        self._offset = 0

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
        return StepOutcome.COMPLETED


class LossyDemuxKernel(DemuxKernel):
    """Demultiplexer for a network-recovered transport stream.

    Behaves exactly like :class:`DemuxKernel` — the ingest already
    reconstructed erased slots as header + zero payload, so parsing
    never fails — but counts the erased slots it routes and reports the
    ingest statistics through ``degradation_stats()`` so the run result
    carries the full network story (see :mod:`repro.net`)."""

    def __init__(
        self,
        ts: bytes,
        lost_slots: Tuple[int, ...] = (),
        net_stats: Optional[Dict[str, int]] = None,
        report_always: bool = False,
        cycles_per_packet: int = 60,
    ):
        super().__init__(ts, cycles_per_packet)
        self._lost = frozenset(lost_slots)
        self._net_stats = dict(net_stats or {})
        self._report_always = report_always
        self.packets_erased = 0

    def step(self, ctx: KernelContext):
        slot = self._offset // TS_PACKET
        outcome = yield from super().step(ctx)
        if outcome is StepOutcome.COMPLETED and slot in self._lost:
            self.packets_erased += 1
        return outcome

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
    """

    PORTS = (
        PortSpec("es_in", Direction.IN),
        PortSpec("coef_out", Direction.OUT),
        PortSpec("mv_out", Direction.OUT),
    )

    #: ES bytes pulled per refill
    REFILL = 64

    def __init__(self, params: CodecParams, num_frames: int, cost: Optional[CostModel] = None):
        super().__init__()
        self.cost = cost or CostModel()
        self.params = params
        self.num_frames = num_frames
        self._plans: List[FramePlan] = params.gop().coded_order(num_frames)
        self._frame_ptr = 0
        self._mb_ptr = 0
        self._fifo = bytearray()
        self._bitpos = 0  # bit offset into _fifo
        self._header_checked = False
        self._es_exhausted = False

    # -- internal bit FIFO --------------------------------------------------
    def _compact(self) -> None:
        drop = self._bitpos // 8
        if drop:
            del self._fifo[:drop]
            self._bitpos -= drop * 8

    def _try_parse(self):
        """Attempt to parse the next unit from the FIFO; returns the
        parse result or None if more bytes are needed."""
        r = BitReader(bytes(self._fifo))
        r._pos = self._bitpos
        try:
            if not self._header_checked:
                magic = bytes(r.read_bits(8) for _ in range(4))
                from repro.media.codec import MAGIC

                if magic != MAGIC:
                    raise BitstreamError(f"bad magic {magic!r}")
                vals = [r.read_ue() for _ in range(9)]
                expect = [
                    self.params.width // 16,
                    self.params.height // 16,
                    self.num_frames,
                    self.params.gop_n,
                    self.params.gop_m,
                    self.params.q_i,
                    self.params.q_p,
                    self.params.q_b,
                    1 if self.params.half_pel else 0,
                ]
                if vals != expect:
                    raise BitstreamError(f"sequence header mismatch: {vals} != {expect}")
                return ("header", r._pos)
            plan = self._plans[self._frame_ptr]
            if self._mb_ptr == 0:
                r.align()
                if r.read_bits(8) != SYNC_MARKER:
                    raise BitstreamError("lost sync")
                disp = r.read_ue()
                ft = r.read_ue()
                if disp != plan.display_index or ft != "IPB".index(plan.frame_type.value):
                    raise BitstreamError("picture header mismatch")
            mb = read_mb_syntax(r, self._mb_ptr, plan.frame_type, self.params.half_pel)
            return ("mb", r._pos, mb, plan)
        except ReadPastEndError:
            return None  # need more ES bytes

    def step(self, ctx: KernelContext):
        if self._frame_ptr >= len(self._plans):
            return StepOutcome.FINISHED
        parsed = self._try_parse()
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
            self._bitpos = parsed[1]
            self._header_checked = True
            self._compact()
            return StepOutcome.COMPLETED
        _tag, new_pos, mb, plan = parsed
        bits = new_pos - self._bitpos
        qscale = self.params.qscale(plan.frame_type)
        payload = pack_coef_payload(mb.block_pairs)
        coef_hdr = header_from_mb(mb, plan.frame_type, qscale, len(payload))
        mv_hdr = header_from_mb(mb, plan.frame_type, qscale, 0)
        n_pairs = sum(len(p) for p in mb.block_pairs)
        yield ctx.compute(
            self.cost.vld_per_mb
            + self.cost.vld_per_pair * n_pairs
            + self.cost.vld_per_8bits * (bits // 8)
        )
        ok = yield from reserve_all(
            ctx,
            [("coef_out", HEADER_SIZE + len(payload)), ("mv_out", HEADER_SIZE)],
        )
        if not ok:
            return StepOutcome.ABORTED
        yield from emit(ctx, "coef_out", coef_hdr.pack() + payload)
        yield from emit(ctx, "mv_out", mv_hdr.pack())
        # commit parser state
        self._bitpos = new_pos
        self._compact()
        self._mb_ptr += 1
        if self._mb_ptr == self.params.mbs_per_frame:
            self._mb_ptr = 0
            self._frame_ptr += 1
        return StepOutcome.COMPLETED
