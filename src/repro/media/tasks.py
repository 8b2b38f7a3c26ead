"""Eclipse task kernels for the MPEG-2-like codec.

Each kernel corresponds to a medium-grain function of the paper's first
instance (Figure 8): VLD, RLSQ (inverse and forward = quantize+RLE),
DCT (inverse and forward), MC/ME, plus the software tasks (VLE) for the
DSP-CPU and the DISP sink.  They speak only the task-level interface
(GetSpace/Read/Write/PutSpace via generator ops) and share all pixel
arithmetic with the functional reference codec
(:mod:`repro.media.codec`) so that pipeline output is bit-exact.

Design discipline (paper §4.2): a step never mutates persistent kernel
state before every GetSpace it needs has been granted and its outputs
written — a denied inquiry aborts the step and the redo recomputes the
same results from the same uncommitted inputs.

Cycle costs are charged via ComputeOp from a :class:`CostModel`; the
constants are chosen so the per-frame-type bottlenecks of the paper's
Figure 10 emerge (I → RLSQ, P → DCT, B → MC), and every cost is
data-dependent where the paper says it is (VLC bit counts, run-level
pair counts, coded-block counts, one vs two reference fetches).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.kahn.graph import Direction, PortSpec
from repro.kahn.kernel import Kernel, KernelContext, StepOutcome
from repro.media.bitstream import BitReader, BitstreamError, BitWriter
from repro.media.codec import (
    CodecParams,
    MacroblockData,
    MbMode,
    extract_mb,
    insert_mb,
    mb_prediction,
    mode_decision,
    read_mb_syntax,
    read_picture_header,
    read_sequence_header,
    write_mb_syntax,
    write_picture_header,
    write_sequence_header,
)
from repro.media.dct import fdct8x8, idct8x8
from repro.media.gop import FramePlan, FrameType
from repro.media.packets import (
    HEADER_SIZE,
    MbHeader,
    header_from_mb,
    mb_from_header,
    pack_blocks,
    pack_coef_payload,
    pack_pixels,
    unpack_blocks,
    unpack_coef_payload,
    unpack_pixels,
)
from repro.media.quant import dequantize, quantize
from repro.media.scan import inverse_zigzag, run_level_decode, run_level_encode, zigzag
from repro.media.video import Frame

__all__ = [
    "CostModel",
    "VldKernel",
    "RlsqInvKernel",
    "DctKernel",
    "McKernel",
    "DispKernel",
    "MeKernel",
    "QrleKernel",
    "IqKernel",
    "ReconKernel",
    "VleKernel",
]


@dataclass
class CostModel:
    """Hardware cycle costs per work unit (150 MHz-era estimates).

    Tuned so that, with typical content, per-MB costs order as the
    paper's Figure 10 requires: RLSQ slowest on I frames (pair-bound),
    DCT slowest on P frames (coded-block-bound), MC slowest on B frames
    (two off-chip reference fetches).
    """

    vld_per_mb: int = 20
    vld_per_pair: int = 1
    vld_per_8bits: int = 1
    rlsq_per_mb: int = 20
    rlsq_per_block: int = 12
    rlsq_per_pair: int = 9
    dct_per_mb: int = 20
    dct_per_block: int = 70
    mc_per_mb: int = 60
    mc_add_cycles: int = 64
    me_per_mb: int = 40
    me_per_candidate: int = 8
    qrle_per_mb: int = 20
    qrle_per_block: int = 24
    qrle_per_pair: int = 2
    vle_per_mb: int = 40
    vle_per_8bits: int = 8
    disp_per_mb: int = 10
    recon_per_mb: int = 40
    #: bytes of one macroblock's pixels in external memory
    mb_pixel_bytes: int = 384
    #: bytes fetched per prediction direction: the mv-offset reference
    #: window with burst/row alignment overhead is ~2x the bare 384 B
    mc_fetch_bytes: int = 768


# ---------------------------------------------------------------------------
# packet I/O helpers (generator sub-routines used inside kernel steps)
# ---------------------------------------------------------------------------
def read_packet(ctx: KernelContext, port: str) -> Generator:
    """Two-phase packet read (paper's data-dependent GetSpace pattern).

    Returns ``(status, header, payload)`` with status in
    {"ok", "abort", "eos"}.  Does NOT commit — the caller must
    ``put_space(port, HEADER_SIZE + header.payload_len)`` once its step
    is sure to complete.
    """
    sp = yield ctx.get_space(port, HEADER_SIZE)
    if not sp:
        return ("eos" if sp.eos else "abort"), None, None
    hdr_bytes = yield ctx.read(port, 0, HEADER_SIZE)
    hdr = MbHeader.unpack(hdr_bytes)
    if hdr.payload_len == 0:
        return "ok", hdr, b""
    sp = yield ctx.get_space(port, HEADER_SIZE + hdr.payload_len)
    if not sp:
        if sp.eos:
            raise BitstreamError(f"stream on {port!r} ended mid-packet")
        return "abort", None, None
    payload = yield ctx.read(port, HEADER_SIZE, hdr.payload_len)
    return "ok", hdr, payload


def reserve_all(ctx: KernelContext, requests: Sequence[Tuple[str, int]]) -> Generator:
    """GetSpace on every output before committing anything — the only
    safe order for multi-output steps (a partial commit followed by an
    abort would duplicate packets on redo)."""
    for port, size in requests:
        sp = yield ctx.get_space(port, size)
        if not sp:
            return False
    return True


def emit(ctx: KernelContext, port: str, data: bytes) -> Generator:
    """Write+commit one reserved packet."""
    yield ctx.write(port, 0, data)
    yield ctx.put_space(port, len(data))


def vld_packets(
    mb: MacroblockData, plan: FramePlan, params: CodecParams, cost: CostModel, bits: int
) -> Tuple[int, bytes, bytes]:
    """One macroblock's VLD output: the cycles to parse its ``bits`` of
    syntax, its coefficient packet and its motion-vector packet."""
    qscale = params.qscale(plan.frame_type)
    payload = pack_coef_payload(mb.block_pairs)
    coef = header_from_mb(mb, plan.frame_type, qscale, len(payload)).pack() + payload
    mv = header_from_mb(mb, plan.frame_type, qscale, 0).pack()
    n_pairs = sum(len(p) for p in mb.block_pairs)
    cycles = cost.vld_per_mb + cost.vld_per_pair * n_pairs + cost.vld_per_8bits * (bits // 8)
    return cycles, coef, mv


# ---------------------------------------------------------------------------
# decode-side kernels
# ---------------------------------------------------------------------------
class VldKernel(Kernel):
    """Variable-length decoder: bitstream -> coefficient + mv packets.

    Holds the compressed stream as task state and charges its fetch
    through the off-chip port, exactly like the paper's VLD coprocessor
    ("the VLD coprocessor fetches the incoming compressed bit-streams
    from off-chip memory", §6).
    """

    PORTS = (
        PortSpec("coef_out", Direction.OUT),
        PortSpec("mv_out", Direction.OUT),
    )
    STATE_FIELDS = ("num_frames", "_frame_ptr", "_mb_ptr", "bits_consumed_per_mb")

    def __init__(self, bitstream: bytes, cost: Optional[CostModel] = None):
        super().__init__()
        self.cost = cost or CostModel()
        self._reader = BitReader(bitstream)
        self.params, self.num_frames = read_sequence_header(self._reader)
        self._plans: List[FramePlan] = self.params.gop().coded_order(self.num_frames)
        self._frame_ptr = 0
        self._mb_ptr = 0
        self.bits_consumed_per_mb: List[int] = []

    def step(self, ctx: KernelContext):
        if self._frame_ptr >= len(self._plans):
            return StepOutcome.FINISHED
        plan = self._plans[self._frame_ptr]
        # parse into locals only — state advances after commit (§4.2)
        pos_before = self._reader.bit_position
        r = self._reader
        if self._mb_ptr == 0:
            read_picture_header(r, plan)
        mb = read_mb_syntax(r, self._mb_ptr, plan.frame_type, self.params.half_pel)
        bits = r.bit_position - pos_before
        pos_after = r.bit_position
        cycles, coef, mv = vld_packets(mb, plan, self.params, self.cost, bits)
        yield ctx.compute(cycles)
        yield ctx.external_access((bits + 7) // 8, is_write=False)

        # restore-then-commit: the reader must stay at pos_before until
        # output space is granted, or an aborted step would skip data
        self._reader._pos = pos_before
        ok = yield from reserve_all(ctx, [("coef_out", len(coef)), ("mv_out", len(mv))])
        if not ok:
            return StepOutcome.ABORTED
        yield from emit(ctx, "coef_out", coef)
        yield from emit(ctx, "mv_out", mv)
        # committed: advance persistent state
        self._reader._pos = pos_after
        self.bits_consumed_per_mb.append(bits)
        self._mb_ptr += 1
        if self._mb_ptr == self.params.mbs_per_frame:
            self._mb_ptr = 0
            self._frame_ptr += 1
        return StepOutcome.COMPLETED


class RlsqInvKernel(Kernel):
    """RLSQ, decode direction: run-level decode + inverse scan +
    inverse quantization -> dense int16 coefficient blocks."""

    PORTS = (PortSpec("in", Direction.IN), PortSpec("out", Direction.OUT))

    #: six dense 8x8 int16 blocks (MPEG-2 saturates dequantized
    #: coefficients to 12 bits, so 16-bit transport is exact)
    OUT_PAYLOAD = 6 * 64 * 2

    def __init__(self, cost: Optional[CostModel] = None):
        super().__init__()
        self.cost = cost or CostModel()

    def step(self, ctx: KernelContext):
        status, hdr, payload = yield from read_packet(ctx, "in")
        if status == "eos":
            return StepOutcome.FINISHED
        if status == "abort":
            return StepOutcome.ABORTED
        pairs = unpack_coef_payload(payload, hdr.cbp)
        intra = hdr.mode is MbMode.INTRA
        blocks: List[np.ndarray] = []
        pair_iter = iter(pairs)
        n_pairs = 0
        for i in range(6):
            if hdr.cbp & (1 << i):
                p = next(pair_iter)
                n_pairs += len(p)
                levels = inverse_zigzag(run_level_decode(p))
                blocks.append(dequantize(levels, intra, hdr.qscale))
            else:
                blocks.append(np.zeros((8, 8), dtype=np.int16))
        n_coded = bin(hdr.cbp).count("1")
        yield ctx.compute(
            self.cost.rlsq_per_mb
            + self.cost.rlsq_per_block * n_coded
            + self.cost.rlsq_per_pair * n_pairs
        )
        out = hdr.with_payload(self.OUT_PAYLOAD).pack() + pack_blocks(blocks, np.int16)
        ok = yield from reserve_all(ctx, [("out", len(out))])
        if not ok:
            return StepOutcome.ABORTED
        yield from emit(ctx, "out", out)
        yield ctx.put_space("in", HEADER_SIZE + hdr.payload_len)
        return StepOutcome.COMPLETED


class DctKernel(Kernel):
    """The DCT coprocessor: weakly programmable, both directions.

    Paper §3.2: the GetTask ``task_info`` word carries "one bit to
    select whether a forward or inverse DCT is to be performed" — so
    one kernel serves the decoder's IDCT, the encoder's forward DCT and
    the encoder-loop IDCT, selected per task at configuration time.

    * inverse (``task_info & 1 == 0``): int16 coefficients -> int16
      spatial residual; only coded blocks (cbp) are transformed;
    * forward (``task_info & 1 == 1``): int16 residual -> float64
      coefficients, all six blocks.
    """

    PORTS = (PortSpec("in", Direction.IN), PortSpec("out", Direction.OUT))

    INV_PAYLOAD = 6 * 64 * 2
    FWD_PAYLOAD = 6 * 64 * 8

    #: task_info bit selecting the forward transform
    FORWARD = 1

    def __init__(self, cost: Optional[CostModel] = None):
        super().__init__()
        self.cost = cost or CostModel()

    def step(self, ctx: KernelContext):
        status, hdr, payload = yield from read_packet(ctx, "in")
        if status == "eos":
            return StepOutcome.FINISHED
        if status == "abort":
            return StepOutcome.ABORTED
        if ctx.task_info & self.FORWARD:
            resid = unpack_blocks(payload, np.int16)
            blocks = [fdct8x8(b.astype(np.float64)) for b in resid]
            n_transformed = 6
            out = hdr.with_payload(self.FWD_PAYLOAD).pack() + pack_blocks(
                blocks, np.float64
            )
        else:
            coef = unpack_blocks(payload, np.int16)
            blocks = []
            n_transformed = 0
            for i in range(6):
                if hdr.cbp & (1 << i):
                    n_transformed += 1
                    blocks.append(
                        np.rint(idct8x8(coef[i].astype(np.float64))).astype(np.int16)
                    )
                else:
                    blocks.append(np.zeros((8, 8), dtype=np.int16))
            out = hdr.with_payload(self.INV_PAYLOAD).pack() + pack_blocks(
                blocks, np.int16
            )
        yield ctx.compute(self.cost.dct_per_mb + self.cost.dct_per_block * n_transformed)
        ok = yield from reserve_all(ctx, [("out", len(out))])
        if not ok:
            return StepOutcome.ABORTED
        yield from emit(ctx, "out", out)
        yield ctx.put_space("in", HEADER_SIZE + hdr.payload_len)
        return StepOutcome.COMPLETED


def _new_frame(params: CodecParams) -> Frame:
    return Frame(
        np.zeros((params.height, params.width), dtype=np.uint8),
        np.zeros((params.height // 2, params.width // 2), dtype=np.uint8),
        np.zeros((params.height // 2, params.width // 2), dtype=np.uint8),
    )


class McKernel(Kernel):
    """Motion compensation: residual + motion vectors -> reconstructed
    macroblocks; keeps reference frames in (modelled) off-chip memory
    and charges one fetch per prediction direction — the source of the
    B-frame bottleneck in Figure 10."""

    PORTS = (
        PortSpec("resid_in", Direction.IN),
        PortSpec("mv_in", Direction.IN),
        PortSpec("out", Direction.OUT),
    )

    OUT_PAYLOAD = 384
    STATE_FIELDS = ("_frame_ptr", "_mb_ptr", "_building", "_refs")

    def __init__(self, params: CodecParams, num_frames: int, cost: Optional[CostModel] = None):
        super().__init__()
        self.cost = cost or CostModel()
        self.params = params
        self._plans = params.gop().coded_order(num_frames)
        self._frame_ptr = 0
        self._mb_ptr = 0
        self._building: Frame = _new_frame(params)
        self._refs: Dict[int, Frame] = {}

    def step(self, ctx: KernelContext):
        if self._frame_ptr >= len(self._plans):
            return StepOutcome.FINISHED
        plan = self._plans[self._frame_ptr]
        status, mv_hdr, _ = yield from read_packet(ctx, "mv_in")
        if status == "eos":
            return StepOutcome.FINISHED
        if status == "abort":
            return StepOutcome.ABORTED
        status, r_hdr, r_payload = yield from read_packet(ctx, "resid_in")
        if status == "eos":
            raise BitstreamError("residual stream ended before mv stream")
        if status == "abort":
            return StepOutcome.ABORTED
        if mv_hdr.mb_index != r_hdr.mb_index:
            raise BitstreamError(
                f"mv/residual streams out of step: {mv_hdr.mb_index} vs {r_hdr.mb_index}"
            )
        mb_y, mb_x = divmod(mv_hdr.mb_index, self.params.mb_cols)
        fwd = self._refs.get(plan.forward_ref) if plan.forward_ref is not None else None
        bwd = self._refs.get(plan.backward_ref) if plan.backward_ref is not None else None
        pred = mb_prediction(mv_hdr.mode, fwd, bwd, mb_y, mb_x, mv_hdr.fwd_vec, mv_hdr.bwd_vec)
        resid = unpack_blocks(r_payload, np.int16)
        recon = [
            np.clip(p.astype(np.int16) + r, 0, 255).astype(np.uint8)
            for p, r in zip(pred, resid)
        ]
        n_fetches = {MbMode.INTRA: 0, MbMode.FWD: 1, MbMode.BWD: 1, MbMode.BI: 2}[mv_hdr.mode]
        yield ctx.compute(self.cost.mc_per_mb + self.cost.mc_add_cycles)
        for _ in range(n_fetches):
            yield ctx.external_access(self.cost.mc_fetch_bytes, is_write=False)
        out = mv_hdr.with_payload(self.OUT_PAYLOAD).pack() + pack_pixels(recon)
        ok = yield from reserve_all(ctx, [("out", len(out))])
        if not ok:
            return StepOutcome.ABORTED
        yield from emit(ctx, "out", out)
        # reference writeback for anchor frames goes through the write
        # buffer — it occupies the port but does not stall MC
        if plan.frame_type is not FrameType.B:
            yield ctx.external_access(self.cost.mb_pixel_bytes, is_write=True, posted=True)
        yield ctx.put_space("mv_in", HEADER_SIZE)
        yield ctx.put_space("resid_in", HEADER_SIZE + r_hdr.payload_len)
        # ---- commit state ----
        insert_mb(self._building, mb_y, mb_x, recon)
        self._mb_ptr += 1
        if self._mb_ptr == self.params.mbs_per_frame:
            if plan.frame_type is not FrameType.B:
                self._refs[plan.display_index] = self._building
                # keep at most the two live anchors
                live = {plan.display_index}
                nxt = self._plans[self._frame_ptr + 1 :]
                for p in nxt:
                    if p.forward_ref is not None:
                        live.add(p.forward_ref)
                    if p.backward_ref is not None:
                        live.add(p.backward_ref)
                self._refs = {k: v for k, v in self._refs.items() if k in live}
            self._building = _new_frame(self.params)
            self._mb_ptr = 0
            self._frame_ptr += 1
        return StepOutcome.COMPLETED


class DispKernel(Kernel):
    """Display sink: assembles decoded frames and reorders them to
    display order; writes pixels to (modelled) external memory."""

    PORTS = (PortSpec("in", Direction.IN),)
    STATE_FIELDS = ("_frame_ptr", "_mb_ptr", "_building", "frames")

    def __init__(self, params: CodecParams, num_frames: int, cost: Optional[CostModel] = None):
        super().__init__()
        self.cost = cost or CostModel()
        self.params = params
        self._plans = params.gop().coded_order(num_frames)
        self._frame_ptr = 0
        self._mb_ptr = 0
        self._building = _new_frame(params)
        #: decoded frames by display index (complete after the run)
        self.frames: Dict[int, Frame] = {}

    def display_frames(self) -> List[Frame]:
        return [self.frames[i] for i in sorted(self.frames)]

    def step(self, ctx: KernelContext):
        if self._frame_ptr >= len(self._plans):
            return StepOutcome.FINISHED
        status, hdr, payload = yield from read_packet(ctx, "in")
        if status == "eos":
            return StepOutcome.FINISHED
        if status == "abort":
            return StepOutcome.ABORTED
        yield ctx.compute(self.cost.disp_per_mb)
        yield ctx.external_access(self.cost.mb_pixel_bytes, is_write=True, posted=True)
        yield ctx.put_space("in", HEADER_SIZE + hdr.payload_len)
        # ---- commit state ----
        mb_y, mb_x = divmod(hdr.mb_index, self.params.mb_cols)
        insert_mb(self._building, mb_y, mb_x, unpack_pixels(payload))
        self._mb_ptr += 1
        if self._mb_ptr == self.params.mbs_per_frame:
            plan = self._plans[self._frame_ptr]
            self.frames[plan.display_index] = self._building
            self._building = _new_frame(self.params)
            self._mb_ptr = 0
            self._frame_ptr += 1
        return StepOutcome.COMPLETED


# ---------------------------------------------------------------------------
# encode-side kernels
# ---------------------------------------------------------------------------
class MeKernel(Kernel):
    """Motion estimation + mode decision: the encode-side source.

    Holds the raw video in (modelled) off-chip memory and the
    reconstructed reference frames fed back from RECON; emits per-MB
    residual packets (to FDCT) and, for anchor frames, the prediction
    (to RECON).  Finishing is by count — every encode kernel knows the
    exact packet totals from the GOP plan, which keeps the feedback
    cycle deadlock-free.
    """

    PORTS = (
        PortSpec("resid_out", Direction.OUT),
        PortSpec("pred_out", Direction.OUT),
        PortSpec("recon_in", Direction.IN),
    )

    RESID_PAYLOAD = 6 * 64 * 2
    PRED_PAYLOAD = 384
    STATE_FIELDS = (
        "_frame_ptr", "_mb_ptr", "_refs", "_recon_anchor_ptr",
        "_recon_mb_ptr", "_recon_building", "_recon_received",
    )

    def __init__(
        self,
        frames: Sequence[Frame],
        params: CodecParams,
        cost: Optional[CostModel] = None,
    ):
        super().__init__()
        self.cost = cost or CostModel()
        self.params = params
        self.frames = list(frames)
        self._plans = params.gop().coded_order(len(frames))
        self._anchor_plans = [p for p in self._plans if p.frame_type is not FrameType.B]
        self._frame_ptr = 0
        self._mb_ptr = 0
        # reconstructed reference state, fed by recon_in
        self._refs: Dict[int, Frame] = {}
        self._recon_anchor_ptr = 0
        self._recon_mb_ptr = 0
        self._recon_building = _new_frame(params)
        self._recon_total = len(self._anchor_plans) * params.mbs_per_frame
        self._recon_received = 0

    # -- feedback consumption ------------------------------------------------
    def _consume_recon(self, ctx: KernelContext):
        status, hdr, payload = yield from read_packet(ctx, "recon_in")
        if status != "ok":
            return status
        yield ctx.put_space("recon_in", HEADER_SIZE + hdr.payload_len)
        mb_y, mb_x = divmod(hdr.mb_index, self.params.mb_cols)
        insert_mb(self._recon_building, mb_y, mb_x, unpack_pixels(payload))
        self._recon_mb_ptr += 1
        self._recon_received += 1
        if self._recon_mb_ptr == self.params.mbs_per_frame:
            plan = self._anchor_plans[self._recon_anchor_ptr]
            self._refs[plan.display_index] = self._recon_building
            self._recon_building = _new_frame(self.params)
            self._recon_mb_ptr = 0
            self._recon_anchor_ptr += 1
        return "ok"

    def step(self, ctx: KernelContext):
        if self._frame_ptr >= len(self._plans):
            # drain the remaining feedback, then finish
            if self._recon_received >= self._recon_total:
                return StepOutcome.FINISHED
            status = yield from self._consume_recon(ctx)
            return StepOutcome.COMPLETED if status == "ok" else StepOutcome.ABORTED

        plan = self._plans[self._frame_ptr]
        needed = [r for r in (plan.forward_ref, plan.backward_ref) if r is not None]
        if any(r not in self._refs for r in needed):
            status = yield from self._consume_recon(ctx)
            return StepOutcome.COMPLETED if status == "ok" else StepOutcome.ABORTED

        current = self.frames[plan.display_index]
        mb_y, mb_x = divmod(self._mb_ptr, self.params.mb_cols)
        fwd = self._refs.get(plan.forward_ref) if plan.forward_ref is not None else None
        bwd = self._refs.get(plan.backward_ref) if plan.backward_ref is not None else None
        mode, fv, bv = mode_decision(
            current,
            plan.frame_type,
            fwd,
            bwd,
            mb_y,
            mb_x,
            self.params.search_range,
            self.params.half_pel,
        )
        pred = mb_prediction(mode, fwd, bwd, mb_y, mb_x, fv, bv)
        blocks = extract_mb(current, mb_y, mb_x)
        resid = [
            (b.astype(np.int16) - p.astype(np.int16)) for b, p in zip(blocks, pred)
        ]
        qscale = self.params.qscale(plan.frame_type)
        mb = MacroblockData(self._mb_ptr, mode, fv, bv, 0x3F, [])
        hdr = header_from_mb(mb, plan.frame_type, qscale, self.RESID_PAYLOAD)
        resid_pkt = hdr.pack() + pack_blocks(resid, np.int16)

        # ME cost: candidate SADs for inter search + MB fetch traffic
        # (half-pel refinement adds 8 interpolated candidates)
        window = (2 * self.params.search_range + 1) ** 2 + (
            8 if self.params.half_pel else 0
        )
        n_searches = {FrameType.I: 0, FrameType.P: 1, FrameType.B: 2}[plan.frame_type]
        yield ctx.compute(
            self.cost.me_per_mb + self.cost.me_per_candidate * window * n_searches
        )
        yield ctx.external_access(self.cost.mb_pixel_bytes * (1 + n_searches), is_write=False)

        is_anchor = plan.frame_type is not FrameType.B
        reqs = [("resid_out", len(resid_pkt))]
        pred_pkt = b""
        if is_anchor:
            pred_u8 = [p.astype(np.uint8) for p in pred]
            pred_pkt = hdr.with_payload(self.PRED_PAYLOAD).pack() + pack_pixels(pred_u8)
            reqs.append(("pred_out", len(pred_pkt)))
        ok = yield from reserve_all(ctx, reqs)
        if not ok:
            return StepOutcome.ABORTED
        yield from emit(ctx, "resid_out", resid_pkt)
        if is_anchor:
            yield from emit(ctx, "pred_out", pred_pkt)
        # ---- commit state ----
        self._mb_ptr += 1
        if self._mb_ptr == self.params.mbs_per_frame:
            self._mb_ptr = 0
            self._frame_ptr += 1
        return StepOutcome.COMPLETED


class QrleKernel(Kernel):
    """RLSQ coprocessor, encode direction: quantize + zigzag +
    run-level encode.  Emits the symbol packet (to VLE) and the dense
    quantized levels (to IQ for the reconstruction loop)."""

    PORTS = (
        PortSpec("in", Direction.IN),
        PortSpec("sym_out", Direction.OUT),
        PortSpec("lev_out", Direction.OUT),
    )

    LEV_PAYLOAD = 6 * 64 * 2

    def __init__(self, cost: Optional[CostModel] = None):
        super().__init__()
        self.cost = cost or CostModel()

    def step(self, ctx: KernelContext):
        status, hdr, payload = yield from read_packet(ctx, "in")
        if status == "eos":
            return StepOutcome.FINISHED
        if status == "abort":
            return StepOutcome.ABORTED
        coef = unpack_blocks(payload, np.float64)
        intra = hdr.mode is MbMode.INTRA
        cbp = 0
        all_pairs: List[List[Tuple[int, int]]] = []
        level_blocks: List[np.ndarray] = []
        n_pairs = 0
        for i in range(6):
            levels = quantize(coef[i], intra, hdr.qscale)
            pairs = run_level_encode(zigzag(levels))
            if pairs:
                cbp |= 1 << i
                all_pairs.append(pairs)
                n_pairs += len(pairs)
                level_blocks.append(levels)
            else:
                level_blocks.append(np.zeros((8, 8), dtype=np.int16))
        yield ctx.compute(
            self.cost.qrle_per_mb + self.cost.qrle_per_block * 6 + self.cost.qrle_per_pair * n_pairs
        )
        sym_payload = pack_coef_payload(all_pairs)
        sym_pkt = hdr.with_payload(len(sym_payload), cbp=cbp).pack() + sym_payload
        lev_pkt = hdr.with_payload(self.LEV_PAYLOAD, cbp=cbp).pack() + pack_blocks(
            level_blocks, np.int16
        )
        ok = yield from reserve_all(
            ctx, [("sym_out", len(sym_pkt)), ("lev_out", len(lev_pkt))]
        )
        if not ok:
            return StepOutcome.ABORTED
        yield from emit(ctx, "sym_out", sym_pkt)
        yield from emit(ctx, "lev_out", lev_pkt)
        yield ctx.put_space("in", HEADER_SIZE + hdr.payload_len)
        return StepOutcome.COMPLETED


class IqKernel(Kernel):
    """RLSQ coprocessor, inverse-quantization task of the encoder's
    reconstruction loop: dense levels -> dense int16 coefficients."""

    PORTS = (PortSpec("in", Direction.IN), PortSpec("out", Direction.OUT))

    OUT_PAYLOAD = 6 * 64 * 2

    def __init__(self, cost: Optional[CostModel] = None):
        super().__init__()
        self.cost = cost or CostModel()

    def step(self, ctx: KernelContext):
        status, hdr, payload = yield from read_packet(ctx, "in")
        if status == "eos":
            return StepOutcome.FINISHED
        if status == "abort":
            return StepOutcome.ABORTED
        levels = unpack_blocks(payload, np.int16)
        intra = hdr.mode is MbMode.INTRA
        blocks = [
            dequantize(levels[i], intra, hdr.qscale)
            if hdr.cbp & (1 << i)
            else np.zeros((8, 8), dtype=np.int16)
            for i in range(6)
        ]
        n_coded = bin(hdr.cbp).count("1")
        yield ctx.compute(self.cost.rlsq_per_mb + self.cost.rlsq_per_block * n_coded)
        out = hdr.with_payload(self.OUT_PAYLOAD).pack() + pack_blocks(blocks, np.int16)
        ok = yield from reserve_all(ctx, [("out", len(out))])
        if not ok:
            return StepOutcome.ABORTED
        yield from emit(ctx, "out", out)
        yield ctx.put_space("in", HEADER_SIZE + hdr.payload_len)
        return StepOutcome.COMPLETED


class ReconKernel(Kernel):
    """Reconstruction: decoded residual + the encoder's prediction ->
    reference macroblocks fed back to ME (anchor frames only).

    Demonstrates data-dependent consumption: the prediction input is
    read only for I/P macroblocks (paper §4.2's conditional input)."""

    PORTS = (
        PortSpec("resid_in", Direction.IN),
        PortSpec("pred_in", Direction.IN),
        PortSpec("recon_out", Direction.OUT),
    )

    OUT_PAYLOAD = 384

    def __init__(self, params: CodecParams, num_frames: int, cost: Optional[CostModel] = None):
        super().__init__()
        self.cost = cost or CostModel()
        self.params = params
        plans = params.gop().coded_order(num_frames)
        self._total_mbs = len(plans) * params.mbs_per_frame
        self._seen = 0

    def step(self, ctx: KernelContext):
        if self._seen >= self._total_mbs:
            return StepOutcome.FINISHED
        status, r_hdr, r_payload = yield from read_packet(ctx, "resid_in")
        if status == "eos":
            return StepOutcome.FINISHED
        if status == "abort":
            return StepOutcome.ABORTED
        if r_hdr.ftype is FrameType.B:
            # B frames are never references: consume and drop
            yield ctx.compute(self.cost.disp_per_mb)
            yield ctx.put_space("resid_in", HEADER_SIZE + r_hdr.payload_len)
            self._seen += 1
            return StepOutcome.COMPLETED
        # conditional second input (the paper's §4.2 pattern)
        status, p_hdr, p_payload = yield from read_packet(ctx, "pred_in")
        if status == "eos":
            raise BitstreamError("prediction stream ended early")
        if status == "abort":
            return StepOutcome.ABORTED
        if p_hdr.mb_index != r_hdr.mb_index:
            raise BitstreamError(
                f"pred/resid out of step: {p_hdr.mb_index} vs {r_hdr.mb_index}"
            )
        resid = unpack_blocks(r_payload, np.int16)
        pred = unpack_pixels(p_payload)
        recon = [
            np.clip(p.astype(np.int16) + r, 0, 255).astype(np.uint8)
            for p, r in zip(pred, resid)
        ]
        yield ctx.compute(self.cost.recon_per_mb)
        out = r_hdr.with_payload(self.OUT_PAYLOAD).pack() + pack_pixels(recon)
        ok = yield from reserve_all(ctx, [("recon_out", len(out))])
        if not ok:
            return StepOutcome.ABORTED
        yield from emit(ctx, "recon_out", out)
        yield ctx.put_space("resid_in", HEADER_SIZE + r_hdr.payload_len)
        yield ctx.put_space("pred_in", HEADER_SIZE + p_hdr.payload_len)
        self._seen += 1
        return StepOutcome.COMPLETED


class VleKernel(Kernel):
    """Variable-length encoder (software on the DSP-CPU, paper §6):
    symbol packets -> the EMV1 bitstream, kept as task state."""

    PORTS = (PortSpec("in", Direction.IN),)

    def __init__(self, params: CodecParams, num_frames: int, cost: Optional[CostModel] = None):
        super().__init__()
        self.cost = cost or CostModel()
        self.params = params
        self.num_frames = num_frames
        self._plans = params.gop().coded_order(num_frames)
        self._frame_ptr = 0
        self._mb_ptr = 0
        self._writer = BitWriter()
        write_sequence_header(self._writer, params, num_frames)
        self._done = False

    def bitstream(self) -> bytes:
        if not self._done:
            raise RuntimeError("bitstream incomplete: encoder still running")
        return self._writer.getvalue()

    def step(self, ctx: KernelContext):
        if self._done:
            return StepOutcome.FINISHED
        status, hdr, payload = yield from read_packet(ctx, "in")
        if status == "eos":
            raise BitstreamError("symbol stream ended before all frames were coded")
        if status == "abort":
            return StepOutcome.ABORTED
        yield ctx.put_space("in", HEADER_SIZE + hdr.payload_len)
        # ---- commit state (input committed; a sink has no output race)
        w = self._writer
        bits_before = w.bits_written
        plan = self._plans[self._frame_ptr]
        if self._mb_ptr == 0:
            write_picture_header(w, plan)
        pairs = unpack_coef_payload(payload, hdr.cbp)
        mb = mb_from_header(hdr, pairs)
        write_mb_syntax(w, mb, plan.frame_type)
        bits = w.bits_written - bits_before
        yield ctx.compute(self.cost.vle_per_mb + self.cost.vle_per_8bits * (bits // 8))
        yield ctx.external_access((bits + 7) // 8, is_write=True)
        self._mb_ptr += 1
        if self._mb_ptr == self.params.mbs_per_frame:
            self._mb_ptr = 0
            self._frame_ptr += 1
            if self._frame_ptr == len(self._plans):
                self._writer.align()
                self._done = True
        return StepOutcome.COMPLETED
