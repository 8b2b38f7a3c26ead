"""Tests for the transport mux/demux and the streaming A/V pipeline."""

import numpy as np
import pytest

from repro.kahn import FunctionalExecutor
from repro.media import CodecParams, encode_sequence, synthetic_sequence
from repro.media.audio import BLOCK_SAMPLES, adpcm_decode, adpcm_encode, synthetic_pcm
from repro.media.av_pipeline import AV_DECODE_MAPPING, av_decode_graph
from repro.media.bitstream import BitstreamError
from repro.media.transport import (
    AUDIO_PID,
    TS_PACKET,
    VIDEO_PID,
    VldStreamKernel,
    ts_demux,
    ts_mux,
)


def make_av_content(num_frames=5):
    params = CodecParams(width=48, height=32, gop_n=6, gop_m=3)
    frames = synthetic_sequence(params.width, params.height, num_frames)
    video_es, recon, _ = encode_sequence(frames, params)
    pcm = synthetic_pcm(BLOCK_SAMPLES * 6)
    audio_es = adpcm_encode(pcm)
    ts = ts_mux({VIDEO_PID: video_es, AUDIO_PID: audio_es})
    return params, num_frames, ts, recon, pcm, video_es, audio_es


def test_mux_demux_roundtrip():
    _p, _n, ts, _r, _pcm, video_es, audio_es = make_av_content()
    assert len(ts) % TS_PACKET == 0
    streams = ts_demux(ts)
    assert streams[VIDEO_PID] == video_es
    assert streams[AUDIO_PID] == audio_es


def test_mux_interleaves_pids():
    ts = ts_mux({VIDEO_PID: b"v" * 1000, AUDIO_PID: b"a" * 1000})
    pids = [ts[off + 1] | (ts[off + 2] << 8) for off in range(0, len(ts), TS_PACKET)]
    assert VIDEO_PID in pids and AUDIO_PID in pids
    # round-robin: both PIDs appear within the first two packets
    assert set(pids[:2]) == {VIDEO_PID, AUDIO_PID}


def test_demux_detects_bad_sync():
    ts = bytearray(ts_mux({VIDEO_PID: b"x" * 100}))
    ts[0] ^= 0xFF
    with pytest.raises(ValueError, match="sync"):
        ts_demux(bytes(ts))


def test_demux_rejects_ragged_length():
    with pytest.raises(ValueError, match="whole number"):
        ts_demux(b"\x47" * (TS_PACKET + 1))


def test_mux_validates_input():
    with pytest.raises(ValueError):
        ts_mux({})
    with pytest.raises(ValueError):
        ts_mux({0x4000: b"x"})


def test_av_graph_functional_decode():
    """The full §6 application on the reference executor: video pixels
    and audio PCM both bit-exact."""
    params, n, ts, recon, pcm, _v, audio_es = make_av_content()
    g = av_decode_graph(ts, params, n)
    ex = FunctionalExecutor(g)
    ex.run()
    disp = ex._tasks["disp"].kernel
    for got, ref in zip(disp.display_frames(), recon):
        assert np.array_equal(got.y, ref.y)
        assert np.array_equal(got.cb, ref.cb)
    sink = ex._tasks["pcm_sink"].kernel
    assert np.array_equal(sink.pcm(), adpcm_decode(audio_es))


def test_av_graph_structure():
    params, n, ts, _r, _p, _v, _a = make_av_content(num_frames=2)
    g = av_decode_graph(ts, params, n)
    g.validate()
    assert set(g.tasks) == set(AV_DECODE_MAPPING)
    assert g.is_acyclic()


def test_av_decode_determinism():
    from repro.kahn import check_determinism

    params, n, ts, _r, _p, _v, _a = make_av_content(num_frames=3)
    check_determinism(lambda: av_decode_graph(ts, params, n), seeds=range(2))


def test_streaming_vld_waits_for_bytes_only_when_a_read_runs_past_the_end():
    params, n, _ts, _recon, _pcm, video_es, _audio = make_av_content(num_frames=2)
    vld = VldStreamKernel(params, n)
    header = None
    for size in range(len(video_es) + 1):
        vld._fifo = bytearray(video_es[:size])
        header = vld._try_parse()
        if header is not None:
            break
    assert header[0] == "header" and size < len(video_es)
    vld._fifo = bytearray(b"EMVX" + video_es[4:size])
    with pytest.raises(BitstreamError, match="bad magic"):
        vld._try_parse()
