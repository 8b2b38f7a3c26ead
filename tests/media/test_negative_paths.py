"""Negative paths: stream-consistency guards in the media kernels."""

import pytest

from repro.kahn import ApplicationGraph, FunctionalExecutor, TaskNode
from repro.media import CodecParams, decode_sequence, encode_sequence, synthetic_sequence
from repro.media.bitstream import BitstreamError, BitWriter
from repro.media.audio import adpcm_encode, synthetic_pcm, BLOCK_SAMPLES
from repro.media.av_pipeline import AV_DECODE_MAPPING, av_decode_graph
from repro.media.codec import MAGIC, SYNC_MARKER
from repro.media.conceal import video_frame_spans
from repro.media.pipelines import decode_graph
from repro.media.transport import AUDIO_PID, VIDEO_PID, ts_mux


def make_ts(params, num_frames):
    frames = synthetic_sequence(params.width, params.height, num_frames)
    video_es, _, _ = encode_sequence(frames, params)
    audio_es = adpcm_encode(synthetic_pcm(BLOCK_SAMPLES * 2))
    return ts_mux({VIDEO_PID: video_es, AUDIO_PID: audio_es})


def test_vld_stream_rejects_wrong_sequence_header():
    """The streaming VLD verifies the sequence header against its
    configuration — a mismatch is a configuration error, caught loudly."""
    params = CodecParams(width=48, height=32, gop_n=6, gop_m=3)
    ts = make_ts(params, 4)
    wrong = CodecParams(width=48, height=32, gop_n=6, gop_m=3, q_i=9)  # differs
    g = av_decode_graph(ts, wrong, 4)
    with pytest.raises(BitstreamError, match="sequence header mismatch"):
        FunctionalExecutor(g).run()


def test_vld_stream_rejects_wrong_frame_count():
    params = CodecParams(width=48, height=32, gop_n=6, gop_m=3)
    ts = make_ts(params, 4)
    g = av_decode_graph(ts, params, 5)  # expects one frame too many
    with pytest.raises(BitstreamError):
        FunctionalExecutor(g).run()


def test_vld_rejects_corrupt_magic():
    from repro.media.tasks import VldKernel

    with pytest.raises(BitstreamError, match="magic"):
        VldKernel(b"NOPE" + b"\x00" * 64)


def test_demux_rejects_ragged_ts():
    from repro.media.transport import DemuxKernel

    with pytest.raises(ValueError, match="whole number"):
        DemuxKernel(b"\x47" * 100)


# ---------------------------------------------------------------------------
# every EMV1 syntax error is a BitstreamError, whichever decoder reads it
# ---------------------------------------------------------------------------
ONE_MB = CodecParams(width=16, height=16, gop_n=1, gop_m=1)


def one_mb_stream(mb_cols=1, display_index=0, frame_type=0, mode=0) -> bytes:
    """A hand-built one-frame, one-macroblock stream whose header fields
    and macroblock mode carry the given values."""
    w = BitWriter()
    for b in MAGIC:
        w.write_bits(b, 8)
    p = ONE_MB
    for v in (mb_cols, 1, 1, p.gop_n, p.gop_m, p.q_i, p.q_p, p.q_b, 0):
        w.write_ue(v)
    w.align()
    w.write_bits(SYNC_MARKER, 8)
    w.write_ue(display_index)
    w.write_ue(frame_type)
    w.write_ue(mode)  # an I-frame macroblock has no skip flag
    w.write_bits(0, 6)  # no coded blocks
    w.align()
    return w.getvalue()


READERS = {
    "decode_sequence": decode_sequence,
    "decode_graph": lambda stream: FunctionalExecutor(decode_graph(stream)).run(),
    "video_frame_spans": lambda stream: video_frame_spans(stream, ONE_MB, 1),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize(
    "field,value,match",
    [("mb_cols", 0, "sequence header"),
     ("frame_type", 3, "frame plan mismatch"),
     ("display_index", 1, "frame plan mismatch"),
     ("mode", 6, r"macroblock mode 6 \(mb 0\)")],
    ids=["mb_cols", "frame_type", "display_index", "mb_mode"],
)
def test_every_emv1_syntax_error_is_a_bitstream_error(reader, field, value, match):
    read = READERS[reader]
    read(one_mb_stream())  # the stream as built is valid
    with pytest.raises(BitstreamError, match=match):
        read(one_mb_stream(**{field: value}))
