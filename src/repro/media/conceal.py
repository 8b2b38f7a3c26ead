"""Error concealment: where the network damaged a stream.

After a lossy ingest (:mod:`repro.net`) the recovered transport stream
may carry erased slots — the 4-byte TS header survives but the payload
is zeroed.  The decode graph must keep running at full rate anyway:
that is the whole point of graceful degradation.  This module maps the
erasures, at graph-build time, onto the units the decode kernels
conceal:

* :func:`video_frame_spans` clean-parses the *original* elementary
  stream into per-frame bit spans, and :func:`overlapping_frames`
  names the coded frames an erasure touches — the
  :class:`~repro.media.transport.VldStreamKernel` conceals those;
* :func:`damaged_audio_blocks` names the ADPCM blocks an erasure
  touches — the :class:`~repro.media.audio.AdpcmDecoderKernel`
  silences those.

With nothing damaged, both kernels run exactly as on a packet-free
stream, so a 0%-loss run is byte-identical to the packet-free
pipeline.  They report ``degradation_stats()`` — picked up by
:meth:`repro.core.system.EclipseSystem` into
``SystemResult.degradation`` — with exact decoded/concealed accounting
(and an ``N501`` diagnosis when concealment exceeds the budget).
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from repro.media.audio import BLOCK_BYTES
from repro.media.bitstream import BitReader
from repro.media.codec import (
    CodecParams,
    read_mb_syntax,
    read_picture_header,
    read_sequence_header,
)

__all__ = [
    "video_frame_spans",
    "overlapping_frames",
    "damaged_audio_blocks",
]

ByteRange = Tuple[int, int]


def video_frame_spans(
    video_es: bytes, params: CodecParams, num_frames: int
) -> Tuple[int, List[Tuple[int, int]]]:
    """Clean-parse the *original* elementary stream into bit spans.

    Returns ``(header_end_bit, spans)`` where ``spans[i]`` is the
    ``(start_bit, end_bit)`` of coded frame ``i`` (coded order).  Runs
    at build time on the pre-loss stream, so every parse must succeed;
    the spans then locate damage in the post-loss stream, whose byte
    layout is identical (erasure zeroes payloads in place).
    """
    r = BitReader(video_es)
    read_sequence_header(r, (params, num_frames))
    header_end = r.bit_position
    spans: List[Tuple[int, int]] = []
    for plan in params.gop().coded_order(num_frames):
        start = r.bit_position
        read_picture_header(r, plan)
        for mb in range(params.mbs_per_frame):
            read_mb_syntax(r, mb, plan.frame_type, params.half_pel)
        spans.append((start, r.bit_position))
    return header_end, spans


def _overlaps_bits(span: Tuple[int, int], erased: Sequence[ByteRange]) -> bool:
    s_bit, e_bit = span
    for b0, b1 in erased:
        if s_bit < b1 * 8 and b0 * 8 < e_bit:
            return True
    return False


def overlapping_frames(
    spans: Sequence[Tuple[int, int]], erased: Sequence[ByteRange]
) -> Set[int]:
    """Coded-frame indices whose bit span touches an erased byte range."""
    return {i for i, span in enumerate(spans) if _overlaps_bits(span, erased)}


def damaged_audio_blocks(erased: Sequence[ByteRange]) -> Set[int]:
    """ADPCM block indices overlapping an erased audio-ES byte range."""
    out: Set[int] = set()
    for b0, b1 in erased:
        out.update(range(b0 // BLOCK_BYTES, (max(b1, b0 + 1) - 1) // BLOCK_BYTES + 1))
    return out
