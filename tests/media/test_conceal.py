"""Tests for error concealment: damage mapping and concealing kernels."""

import numpy as np
import pytest

from repro.kahn import FunctionalExecutor
from repro.media import CodecParams, encode_sequence, synthetic_sequence
from repro.media.audio import (
    BLOCK_BYTES,
    BLOCK_SAMPLES,
    adpcm_decode,
    adpcm_encode,
    synthetic_pcm,
)
from repro.media.av_pipeline import lossy_av_decode_graph
from repro.media.conceal import (
    damaged_audio_blocks,
    overlapping_frames,
    video_frame_spans,
)
from repro.media.transport import (
    AUDIO_PID,
    TS_HEADER,
    TS_PACKET,
    VIDEO_PID,
    VldStreamKernel,
    ts_mux,
)
from repro.net.ingest import IngestResult, NetStats
from repro.net.packets import slot_table
from repro.sim.faults import LossPlan


def make_content(num_frames=5, gop_m=1):
    params = CodecParams(width=48, height=32, gop_n=6, gop_m=gop_m)
    frames = synthetic_sequence(params.width, params.height, num_frames)
    video_es, recon, _ = encode_sequence(frames, params)
    pcm = synthetic_pcm(BLOCK_SAMPLES * 4)
    audio_es = adpcm_encode(pcm)
    ts = ts_mux({VIDEO_PID: video_es, AUDIO_PID: audio_es})
    return params, num_frames, ts, recon, video_es, audio_es


def erase_slots(ts, slots):
    """An IngestResult that declares exactly these slots lost."""
    out = bytearray(ts)
    for slot in slots:
        off = slot * TS_PACKET
        out[off + TS_HEADER : off + TS_PACKET] = b"\x00" * (TS_PACKET - TS_HEADER)
    return IngestResult(ts, bytes(out), tuple(sorted(slots)),
                        LossPlan(drop_prob=1.0), NetStats())


# ---------------------------------------------------------------------------
# damage mapping
# ---------------------------------------------------------------------------
def test_video_frame_spans_are_contiguous_and_complete():
    params, n, _ts, _r, video_es, _a = make_content()
    header_end, spans = video_frame_spans(video_es, params, n)
    assert len(spans) == n
    assert spans[0][0] == header_end
    for (s0, e0), (s1, _e1) in zip(spans, spans[1:]):
        assert s0 < e0
        assert s1 == e0  # frames abut: no unaccounted bits between them
    assert spans[-1][1] <= len(video_es) * 8


def test_video_frame_spans_reject_garbage():
    from repro.media.bitstream import BitstreamError

    params = CodecParams(width=48, height=32, gop_n=6, gop_m=1)
    with pytest.raises(BitstreamError, match="magic"):
        video_frame_spans(b"\x00" * 64, params, 1)


def test_overlapping_frames_uses_byte_to_bit_overlap():
    spans = [(0, 80), (80, 160), (160, 240)]  # bits
    assert overlapping_frames(spans, [(0, 5)]) == {0}
    assert overlapping_frames(spans, [(9, 11)]) == {0, 1}  # bytes 9-10 straddle
    assert overlapping_frames(spans, [(10, 20)]) == {1}
    assert overlapping_frames(spans, [(25, 26)]) == {2}
    assert overlapping_frames(spans, [(30, 40)]) == set()
    assert overlapping_frames(spans, []) == set()


def test_damaged_audio_blocks_covers_straddling_ranges():
    assert damaged_audio_blocks([(0, 1)]) == {0}
    assert damaged_audio_blocks([(BLOCK_BYTES - 1, BLOCK_BYTES + 1)]) == {0, 1}
    assert damaged_audio_blocks([(BLOCK_BYTES, 2 * BLOCK_BYTES)]) == {1}
    assert damaged_audio_blocks([(0, 0)]) == {0}  # degenerate range: its byte
    assert damaged_audio_blocks([]) == set()


# ---------------------------------------------------------------------------
# kernel validation
# ---------------------------------------------------------------------------
def test_concealing_vld_validates_spans_and_budget():
    params = CodecParams(width=48, height=32, gop_n=6, gop_m=1)
    with pytest.raises(ValueError, match="frame_spans"):
        VldStreamKernel(params, 3, damaged_frames={1}, frame_spans=())
    with pytest.raises(ValueError, match="conceal_budget"):
        VldStreamKernel(params, 3, conceal_budget=1.5)


def test_clean_kernel_reports_nothing_unless_asked():
    params = CodecParams(width=48, height=32, gop_n=6, gop_m=1)
    assert VldStreamKernel(params, 3).degradation_stats() is None
    stats = VldStreamKernel(params, 3, report_always=True).degradation_stats()
    assert stats["frames_concealed"] == 0 and stats["frames_total"] == 3


# ---------------------------------------------------------------------------
# functional decode of a damaged stream
# ---------------------------------------------------------------------------
def pick_video_slot(ts, spans, min_frame=1):
    """A TS slot whose erasure damages only frames >= min_frame."""
    for slot, (pid, off, length) in enumerate(slot_table(ts)):
        if pid != VIDEO_PID or not length:
            continue
        hit = overlapping_frames(spans, [(off, off + length)])
        if hit and min(hit) >= min_frame:
            return slot, hit
    raise AssertionError("no suitable slot in this stream")


def test_concealed_p_frame_is_a_motion_compensated_repeat():
    """Zero-vector forward prediction with no residual == repeat the
    previous displayed frame; clean frames before the damage decode
    bit-exactly."""
    params, n, ts, recon, video_es, _a = make_content(gop_m=1)
    _hdr, spans = video_frame_spans(video_es, params, n)
    slot, damaged = pick_video_slot(ts, spans, min_frame=1)
    res = erase_slots(ts, [slot])
    assert res.erased_ranges()[VIDEO_PID]  # the erasure is visible

    g = lossy_av_decode_graph(res, params, n)
    ex = FunctionalExecutor(g)
    ex.run()
    got = ex._tasks["disp"].kernel.display_frames()
    assert len(got) == n
    first_hit = min(damaged)
    for i in range(first_hit):  # clean prefix: bit-exact decode
        assert np.array_equal(got[i].y, recon[i].y)
    for i in sorted(damaged):  # concealed: repeat of the prior frame
        assert np.array_equal(got[i].y, got[i - 1].y)
        assert np.array_equal(got[i].cb, got[i - 1].cb)
    vld = ex._tasks["vld"].kernel
    stats = vld.degradation_stats()
    assert stats["frames_concealed"] == len(damaged)
    assert stats["mbs_concealed"] == len(damaged) * params.mbs_per_frame


def test_concealed_i_frame_is_flat():
    """An intra frame with no residual reconstructs as a flat field —
    the least-wrong guess when the whole frame is gone."""
    params, n, ts, _r, video_es, _a = make_content(gop_m=1)
    _hdr, spans = video_frame_spans(video_es, params, n)
    res = erase_slots(ts, [])
    # bypass the erasure mapping: declare frame 0 (the I frame) damaged
    g = lossy_av_decode_graph(res, params, n)
    vld = VldStreamKernel(params, n, damaged_frames={0}, frame_spans=spans)
    ex = FunctionalExecutor(g)
    ex._tasks["vld"].kernel = vld
    ex.run()
    got = ex._tasks["disp"].kernel.display_frames()
    assert len(np.unique(got[0].y)) == 1
    assert len(np.unique(got[0].cb)) == 1


def test_damaged_audio_blocks_become_silence():
    params, n, ts, _r, _v, audio_es = make_content()
    # erase one audio-carrying slot
    for slot, (pid, off, length) in enumerate(slot_table(ts)):
        if pid == AUDIO_PID and length:
            break
    res = erase_slots(ts, [slot])
    damaged = damaged_audio_blocks(res.erased_ranges()[AUDIO_PID])
    assert damaged

    g = lossy_av_decode_graph(res, params, n)
    ex = FunctionalExecutor(g)
    ex.run()
    got = ex._tasks["pcm_sink"].kernel.pcm()
    ref = adpcm_decode(audio_es)
    for b in range(len(ref) // BLOCK_SAMPLES):
        chunk = got[b * BLOCK_SAMPLES : (b + 1) * BLOCK_SAMPLES]
        if b in damaged:
            assert not chunk.any()
        else:
            assert np.array_equal(chunk, ref[b * BLOCK_SAMPLES : (b + 1) * BLOCK_SAMPLES])
    audio = ex._tasks["audio_dec"].kernel.degradation_stats()
    assert audio["blocks_silenced"] == len(damaged)
