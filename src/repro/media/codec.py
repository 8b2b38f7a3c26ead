"""Functional reference codec (golden model) and shared MB helpers.

The encoder/decoder here are plain functions — no process network, no
timing — and define the *exact* arithmetic of the format ("EMV1", our
simplified MPEG-2-like syntax).  The Eclipse task kernels in
:mod:`repro.media.tasks` call the same macroblock helpers, so a KPN
execution must reproduce these bits and pixels exactly; any divergence
is a pipeline bug, not codec noise.

Key design points mirroring MPEG-2:

* 4:2:0 macroblocks: 4 luma + 2 chroma 8x8 blocks, 6-bit coded block
  pattern;
* I/P/B frames with closed-GOP reordering (:mod:`repro.media.gop`);
* mode decision per MB (intra / forward / backward / bidirectional)
  by SAD, with intra prediction = flat 128 (so intra and inter blocks
  share one residual path);
* frequency-weighted quantization with per-frame-type scales;
* zigzag + run-level + canonical-Huffman VLC with escape codes;
* bit-exact reconstruction: the encoder's reference frames equal the
  decoder's output frames, byte for byte.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.media.bitstream import BitReader, BitWriter, BitstreamError
from repro.media.dct import fdct8x8, idct8x8
from repro.media.gop import FramePlan, FrameType, GopStructure
from repro.media.motion import MB, MotionVector, estimate, predict_mb, sad
from repro.media.quant import dequantize, quantize
from repro.media.scan import inverse_zigzag, run_level_decode, run_level_encode, zigzag
from repro.media.video import Frame
from repro.media.vlc import decode_block_pairs, encode_block_pairs

__all__ = [
    "CodecParams",
    "MbMode",
    "MacroblockData",
    "EncodeStats",
    "encode_sequence",
    "decode_sequence",
    "encode_macroblock",
    "reconstruct_macroblock",
    "mode_decision",
    "mb_prediction",
    "extract_mb",
    "insert_mb",
    "write_mb_syntax",
    "is_skipped",
    "skipped_mb",
    "read_mb_syntax",
    "write_sequence_header",
    "read_sequence_header",
    "write_picture_header",
    "read_picture_header",
]

MAGIC = b"EMV1"
SYNC_MARKER = 0xA5

#: block geometry within a macroblock: (plane, y-offset, x-offset)
#: planes: 0=y, 1=cb, 2=cr; offsets in plane pixels relative to the MB.
BLOCK_LAYOUT = (
    (0, 0, 0),
    (0, 0, 8),
    (0, 8, 0),
    (0, 8, 8),
    (1, 0, 0),
    (2, 0, 0),
)


class MbMode(enum.IntEnum):
    """Macroblock prediction mode (syntax order matters: coded as ue)."""

    INTRA = 0
    FWD = 1
    BWD = 2
    BI = 3


@dataclass
class CodecParams:
    """Sequence-level coding parameters."""

    width: int = 64
    height: int = 48
    gop_n: int = 12
    gop_m: int = 3
    q_i: int = 8
    q_p: int = 10
    q_b: int = 12
    search_range: int = 4
    #: MPEG-2-style half-pel motion (two-stage search + bilinear
    #: interpolation with integer rounding); off by default
    half_pel: bool = False

    def __post_init__(self) -> None:
        if self.width < 16 or self.height < 16 or self.width % 16 or self.height % 16:
            raise ValueError(
                f"dimensions must be positive multiples of 16, got {self.width}x{self.height}"
            )
        for q in (self.q_i, self.q_p, self.q_b):
            # <= 31 keeps every dequantized coefficient exactly
            # representable in float32, so pipeline packets carrying f32
            # coefficients stay bit-exact with the float64 reference.
            if not 1 <= q <= 31:
                raise ValueError("quantizer scales must be in [1, 31]")
        if self.search_range < 1:
            raise ValueError("search_range must be >= 1")

    @property
    def mb_cols(self) -> int:
        return self.width // MB

    @property
    def mb_rows(self) -> int:
        return self.height // MB

    @property
    def mbs_per_frame(self) -> int:
        return self.mb_cols * self.mb_rows

    def gop(self) -> GopStructure:
        return GopStructure(self.gop_n, self.gop_m)

    def qscale(self, ftype: FrameType) -> int:
        return {FrameType.I: self.q_i, FrameType.P: self.q_p, FrameType.B: self.q_b}[ftype]


@dataclass
class MacroblockData:
    """Everything one coded macroblock carries through the pipeline."""

    mb_index: int
    mode: MbMode
    fwd_vec: Optional[MotionVector]
    bwd_vec: Optional[MotionVector]
    cbp: int
    #: run-level pairs per coded block (len == popcount(cbp)), in
    #: BLOCK_LAYOUT order
    block_pairs: List[List[Tuple[int, int]]]


@dataclass
class EncodeStats:
    """Per-frame / per-MB workload statistics (feeds EXP-A6)."""

    frame_types: List[FrameType] = field(default_factory=list)
    frame_bits: List[int] = field(default_factory=list)
    mb_pairs: List[int] = field(default_factory=list)
    mb_coded_blocks: List[int] = field(default_factory=list)
    mb_modes: List[MbMode] = field(default_factory=list)
    mb_skipped: List[bool] = field(default_factory=list)


# ---------------------------------------------------------------------------
# macroblock pixel access
# ---------------------------------------------------------------------------
def extract_mb(frame: Frame, mb_y: int, mb_x: int) -> List[np.ndarray]:
    """The six 8x8 blocks of the macroblock at MB coordinates."""
    planes = (frame.y, frame.cb, frame.cr)
    out = []
    for plane, oy, ox in BLOCK_LAYOUT:
        scale = 1 if plane == 0 else 2
        base_y = mb_y * MB // scale + oy
        base_x = mb_x * MB // scale + ox
        out.append(planes[plane][base_y : base_y + 8, base_x : base_x + 8])
    return out


def insert_mb(frame: Frame, mb_y: int, mb_x: int, blocks: Sequence[np.ndarray]) -> None:
    """Write six reconstructed 8x8 blocks back into a frame."""
    planes = (frame.y, frame.cb, frame.cr)
    for (plane, oy, ox), block in zip(BLOCK_LAYOUT, blocks):
        scale = 1 if plane == 0 else 2
        base_y = mb_y * MB // scale + oy
        base_x = mb_x * MB // scale + ox
        planes[plane][base_y : base_y + 8, base_x : base_x + 8] = block


def mb_prediction(
    mode: MbMode,
    fwd: Optional[Frame],
    bwd: Optional[Frame],
    mb_y: int,
    mb_x: int,
    fwd_vec: Optional[MotionVector],
    bwd_vec: Optional[MotionVector],
) -> List[np.ndarray]:
    """Prediction blocks for one MB (flat 128 for intra)."""
    if mode is MbMode.INTRA:
        return [np.full((8, 8), 128.0) for _ in BLOCK_LAYOUT]
    use_fwd = mode in (MbMode.FWD, MbMode.BI)
    use_bwd = mode in (MbMode.BWD, MbMode.BI)
    out = []
    for plane, oy, ox in BLOCK_LAYOUT:
        scale = 1 if plane == 0 else 2
        y = mb_y * MB // scale + oy
        x = mb_x * MB // scale + ox
        fv = fwd_vec if use_fwd else None
        bv = bwd_vec if use_bwd else None
        if scale == 2:
            fv = fv.halved() if fv else None
            bv = bv.halved() if bv else None
        fwd_plane = (fwd.y, fwd.cb, fwd.cr)[plane] if (use_fwd and fwd) else None
        bwd_plane = (bwd.y, bwd.cb, bwd.cr)[plane] if (use_bwd and bwd) else None
        out.append(
            predict_mb(
                fwd_plane,
                bwd_plane,
                y,
                x,
                8,
                fv if fwd_plane is not None else None,
                bv if bwd_plane is not None else None,
            )
        )
    return out


# ---------------------------------------------------------------------------
# mode decision
# ---------------------------------------------------------------------------
def mode_decision(
    current: Frame,
    ftype: FrameType,
    fwd: Optional[Frame],
    bwd: Optional[Frame],
    mb_y: int,
    mb_x: int,
    search_range: int,
    half_pel: bool = False,
) -> Tuple[MbMode, Optional[MotionVector], Optional[MotionVector]]:
    """Choose the MB mode and motion vectors by luma SAD.

    Intra cost is the MB's deviation from its own mean (texture
    activity) — the classic cheap intra/inter criterion.
    """
    if ftype is FrameType.I:
        return MbMode.INTRA, None, None
    y0, x0 = mb_y * MB, mb_x * MB
    target = current.y[y0 : y0 + MB, x0 : x0 + MB]
    mean = float(np.mean(target))
    intra_cost = int(np.abs(target.astype(np.float64) - mean).sum())
    candidates: List[Tuple[int, MbMode, Optional[MotionVector], Optional[MotionVector]]] = []
    fvec = bvec = None
    if fwd is not None:
        fvec, fcost = estimate(current.y, fwd.y, y0, x0, search_range, half_pel)
        candidates.append((fcost, MbMode.FWD, fvec, None))
    if ftype is FrameType.B and bwd is not None:
        bvec, bcost = estimate(current.y, bwd.y, y0, x0, search_range, half_pel)
        candidates.append((bcost, MbMode.BWD, None, bvec))
        if fwd is not None:
            from repro.media.motion import predict_block

            bi = np.floor(
                (
                    predict_block(fwd.y, y0, x0, MB, fvec)
                    + predict_block(bwd.y, y0, x0, MB, bvec)
                    + 1
                )
                / 2
            )
            bicost = sad(target, bi)
            candidates.append((bicost, MbMode.BI, fvec, bvec))
    candidates.append((intra_cost, MbMode.INTRA, None, None))
    # min by (cost, syntax order) — deterministic tie-breaking
    candidates.sort(key=lambda c: (c[0], int(c[1])))
    _cost, mode, fv, bv = candidates[0]
    return mode, fv, bv


# ---------------------------------------------------------------------------
# macroblock encode / reconstruct
# ---------------------------------------------------------------------------
def encode_macroblock(
    current: Frame,
    pred: List[np.ndarray],
    mode: MbMode,
    mb_y: int,
    mb_x: int,
    qscale: int,
) -> Tuple[int, List[List[Tuple[int, int]]], List[np.ndarray]]:
    """Transform+quantize one MB against its prediction.

    Returns (cbp, pairs per coded block, reconstructed blocks).
    """
    blocks = extract_mb(current, mb_y, mb_x)
    intra = mode is MbMode.INTRA
    cbp = 0
    all_pairs: List[List[Tuple[int, int]]] = []
    recon_blocks: List[np.ndarray] = []
    for i, (block, p) in enumerate(zip(blocks, pred)):
        # prediction values are integral (pixels, flat 128, or the
        # floor-averaged bi prediction), so the residual is an exact
        # small integer — int16 packets carry it losslessly.
        residual = block.astype(np.int16) - p.astype(np.int16)
        levels = quantize(fdct8x8(residual), intra, qscale)
        pairs = run_level_encode(zigzag(levels))
        if pairs:
            cbp |= 1 << i
            all_pairs.append(pairs)
            # the decoded residual is DEFINED as int16 (cf. IEEE 1180
            # fixing IDCT precision in real MPEG), so both the reference
            # codec and the pipeline reconstruct identically.
            rec_res = np.rint(idct8x8(dequantize(levels, intra, qscale))).astype(np.int16)
        else:
            rec_res = np.zeros((8, 8), dtype=np.int16)
        recon_blocks.append(
            np.clip(p.astype(np.int16) + rec_res, 0, 255).astype(np.uint8)
        )
    return cbp, all_pairs, recon_blocks


def reconstruct_macroblock(
    mb: MacroblockData,
    pred: List[np.ndarray],
    qscale: int,
) -> List[np.ndarray]:
    """Decoder-side MB reconstruction (must mirror encode_macroblock)."""
    intra = mb.mode is MbMode.INTRA
    out: List[np.ndarray] = []
    pair_iter = iter(mb.block_pairs)
    for i, p in enumerate(pred):
        if mb.cbp & (1 << i):
            pairs = next(pair_iter)
            levels = inverse_zigzag(run_level_decode(pairs))
            rec_res = np.rint(idct8x8(dequantize(levels, intra, qscale))).astype(np.int16)
        else:
            rec_res = np.zeros((8, 8), dtype=np.int16)
        out.append(np.clip(p.astype(np.int16) + rec_res, 0, 255).astype(np.uint8))
    return out


# ---------------------------------------------------------------------------
# macroblock syntax
# ---------------------------------------------------------------------------
def _zero(vec: Optional[MotionVector]) -> bool:
    return vec is not None and vec.dy == 0 and vec.dx == 0


def is_skipped(mb: MacroblockData, ftype: FrameType) -> bool:
    """MPEG-style skipped macroblock: no coded blocks and the frame
    type's implied prediction — zero-vector forward in P frames,
    zero-vector bidirectional in B frames — codes as a single bit."""
    if mb.cbp != 0:
        return False
    if ftype is FrameType.P:
        return mb.mode is MbMode.FWD and _zero(mb.fwd_vec)
    if ftype is FrameType.B:
        return mb.mode is MbMode.BI and _zero(mb.fwd_vec) and _zero(mb.bwd_vec)
    return False


def write_mb_syntax(w: BitWriter, mb: MacroblockData, ftype: FrameType) -> None:
    if ftype is not FrameType.I:
        if is_skipped(mb, ftype):
            w.write_bit(1)
            return
        w.write_bit(0)
    w.write_ue(int(mb.mode))
    if mb.mode in (MbMode.FWD, MbMode.BI):
        w.write_se(mb.fwd_vec.dy)
        w.write_se(mb.fwd_vec.dx)
    if mb.mode in (MbMode.BWD, MbMode.BI):
        w.write_se(mb.bwd_vec.dy)
        w.write_se(mb.bwd_vec.dx)
    w.write_bits(mb.cbp, 6)
    for pairs in mb.block_pairs:
        encode_block_pairs(w, pairs)


def skipped_mb(mb_index: int, ftype: FrameType, half_pel: bool = False) -> MacroblockData:
    """A macroblock with no coded blocks and its frame type's implied
    prediction: what a skip codes in P/B frames, and flat intra in I
    frames, which code no skips (concealment uses it there)."""
    if ftype is FrameType.I:
        return MacroblockData(mb_index, MbMode.INTRA, None, None, 0, [])
    zero = MotionVector(0, 0, half_pel)
    if ftype is FrameType.P:
        return MacroblockData(mb_index, MbMode.FWD, zero, None, 0, [])
    return MacroblockData(mb_index, MbMode.BI, zero, zero, 0, [])


def read_mb_syntax(
    r: BitReader, mb_index: int, ftype: FrameType, half_pel: bool = False
) -> MacroblockData:
    if ftype is not FrameType.I and r.read_bit():
        return skipped_mb(mb_index, ftype, half_pel)
    code = r.read_ue()
    if code >= len(MbMode):
        raise BitstreamError(f"bad macroblock mode {code} (mb {mb_index})")
    mode = MbMode(code)
    if ftype is FrameType.I and mode is not MbMode.INTRA:
        raise BitstreamError(f"non-intra MB in I frame (mb {mb_index})")
    if ftype is FrameType.P and mode in (MbMode.BWD, MbMode.BI):
        raise BitstreamError(f"backward prediction in P frame (mb {mb_index})")
    fwd_vec = bwd_vec = None
    if mode in (MbMode.FWD, MbMode.BI):
        fwd_vec = MotionVector(r.read_se(), r.read_se(), half_pel)
    if mode in (MbMode.BWD, MbMode.BI):
        bwd_vec = MotionVector(r.read_se(), r.read_se(), half_pel)
    cbp = r.read_bits(6)
    block_pairs = [decode_block_pairs(r) for i in range(6) if cbp & (1 << i)]
    return MacroblockData(mb_index, mode, fwd_vec, bwd_vec, cbp, block_pairs)


# ---------------------------------------------------------------------------
# sequence and picture headers (docs/format-emv1.md)
# ---------------------------------------------------------------------------
def _sequence_fields(p: CodecParams, num_frames: int) -> List[int]:
    return [p.width // 16, p.height // 16, num_frames, p.gop_n, p.gop_m,
            p.q_i, p.q_p, p.q_b, 1 if p.half_pel else 0]


def write_sequence_header(w: BitWriter, params: CodecParams, num_frames: int) -> None:
    for b in MAGIC:
        w.write_bits(b, 8)
    for v in _sequence_fields(params, num_frames):
        w.write_ue(v)


def read_sequence_header(
    r: BitReader, expect: Optional[Tuple[CodecParams, int]] = None
) -> Tuple[CodecParams, int]:
    """``(params, num_frames)`` from the sequence header.

    With ``expect`` — the configuration a decoder was set up with — the
    fields as read must equal its fields, so a mismatch is reported
    even where the stream's fields would make no valid CodecParams.
    """
    magic = bytes(r.read_bits(8) for _ in range(4))
    if magic != MAGIC:
        raise BitstreamError(f"bad magic {magic!r}")
    fields = [r.read_ue() for _ in range(9)]
    if expect is not None:
        want = _sequence_fields(*expect)
        if fields != want:
            raise BitstreamError(f"sequence header mismatch: {fields} != {want}")
        return expect
    mb_cols, mb_rows, num_frames, gop_n, gop_m, q_i, q_p, q_b, half_pel = fields
    try:
        params = CodecParams(width=mb_cols * 16, height=mb_rows * 16, gop_n=gop_n,
                             gop_m=gop_m, q_i=q_i, q_p=q_p, q_b=q_b, half_pel=bool(half_pel))
        params.gop()  # checks gop_n/gop_m
    except ValueError as e:
        raise BitstreamError(f"bad sequence header: {e}") from None
    return params, num_frames


def write_picture_header(w: BitWriter, plan: FramePlan) -> None:
    w.align()
    w.write_bits(SYNC_MARKER, 8)
    w.write_ue(plan.display_index)
    w.write_ue("IPB".index(plan.frame_type.value))


def read_picture_header(r: BitReader, plan: FramePlan) -> None:
    """Parse a picture header, which must match the GOP ``plan``."""
    r.align()
    marker = r.read_bits(8)
    if marker != SYNC_MARKER:
        raise BitstreamError(f"lost sync at frame {plan.coded_index}: {marker:#x}")
    display_index = r.read_ue()
    code = r.read_ue()
    want = "IPB".index(plan.frame_type.value)
    if display_index != plan.display_index or code != want:
        raise BitstreamError(
            f"frame plan mismatch at frame {plan.coded_index}: stream says type "
            f"{code} at display {display_index}, GOP says type {want} at display "
            f"{plan.display_index}"
        )


# ---------------------------------------------------------------------------
# sequence encode
# ---------------------------------------------------------------------------
def encode_sequence(
    frames: Sequence[Frame], params: CodecParams
) -> Tuple[bytes, List[Frame], EncodeStats]:
    """Encode display-order ``frames``; returns (bitstream, the
    encoder's reconstructed frames in display order, stats).

    The reconstructed frames are what a correct decoder must output
    bit-exactly.
    """
    for f in frames:
        if f.shape != (params.height, params.width):
            raise ValueError(f"frame shape {f.shape} != params {params.height, params.width}")
    w = BitWriter()
    write_sequence_header(w, params, len(frames))
    stats = EncodeStats()
    recon: Dict[int, Frame] = {}
    plans = params.gop().coded_order(len(frames))
    for plan in plans:
        bits_before = w.bits_written
        frame = frames[plan.display_index]
        fwd = recon.get(plan.forward_ref) if plan.forward_ref is not None else None
        bwd = recon.get(plan.backward_ref) if plan.backward_ref is not None else None
        qscale = params.qscale(plan.frame_type)
        write_picture_header(w, plan)
        rec = Frame(
            np.zeros_like(frame.y),
            np.zeros_like(frame.cb),
            np.zeros_like(frame.cr),
        )
        for mb_y in range(params.mb_rows):
            for mb_x in range(params.mb_cols):
                mode, fv, bv = mode_decision(
                    frame,
                    plan.frame_type,
                    fwd,
                    bwd,
                    mb_y,
                    mb_x,
                    params.search_range,
                    params.half_pel,
                )
                pred = mb_prediction(mode, fwd, bwd, mb_y, mb_x, fv, bv)
                cbp, pairs, rec_blocks = encode_macroblock(
                    frame, pred, mode, mb_y, mb_x, qscale
                )
                mb = MacroblockData(
                    mb_y * params.mb_cols + mb_x, mode, fv, bv, cbp, pairs
                )
                write_mb_syntax(w, mb, plan.frame_type)
                insert_mb(rec, mb_y, mb_x, rec_blocks)
                stats.mb_pairs.append(sum(len(p) for p in pairs))
                stats.mb_coded_blocks.append(bin(cbp).count("1"))
                stats.mb_modes.append(mode)
                stats.mb_skipped.append(is_skipped(mb, plan.frame_type))
        recon[plan.display_index] = rec
        stats.frame_types.append(plan.frame_type)
        stats.frame_bits.append(w.bits_written - bits_before)
    w.align()
    display = [recon[i] for i in range(len(frames))]
    return w.getvalue(), display, stats


# ---------------------------------------------------------------------------
# sequence decode
# ---------------------------------------------------------------------------
def decode_sequence(bitstream: bytes) -> Tuple[List[Frame], CodecParams]:
    """Decode an EMV1 bitstream to display-order frames."""
    r = BitReader(bitstream)
    params, num_frames = read_sequence_header(r)
    recon: Dict[int, Frame] = {}
    plans = params.gop().coded_order(num_frames)
    for plan in plans:
        read_picture_header(r, plan)
        fwd = recon.get(plan.forward_ref) if plan.forward_ref is not None else None
        bwd = recon.get(plan.backward_ref) if plan.backward_ref is not None else None
        qscale = params.qscale(plan.frame_type)
        frame = Frame(
            np.zeros((params.height, params.width), dtype=np.uint8),
            np.zeros((params.height // 2, params.width // 2), dtype=np.uint8),
            np.zeros((params.height // 2, params.width // 2), dtype=np.uint8),
        )
        for mb_y in range(params.mb_rows):
            for mb_x in range(params.mb_cols):
                mb = read_mb_syntax(
                    r, mb_y * params.mb_cols + mb_x, plan.frame_type, params.half_pel
                )
                pred = mb_prediction(mb.mode, fwd, bwd, mb_y, mb_x, mb.fwd_vec, mb.bwd_vec)
                blocks = reconstruct_macroblock(mb, pred, qscale)
                insert_mb(frame, mb_y, mb_x, blocks)
        recon[plan.display_index] = frame
    return [recon[i] for i in range(num_frames)], params
