"""Functional codec tests: round-trip, bit-exact reconstruction, stats."""

import numpy as np
import pytest

from repro.media import CodecParams, decode_sequence, encode_sequence, synthetic_sequence
from repro.media.codec import MbMode
from repro.media.gop import FrameType


def psnr(a, b):
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    return 10 * np.log10(255.0**2 / mse) if mse > 0 else np.inf


def small_params(**kw):
    defaults = dict(width=48, height=32, gop_n=6, gop_m=3)
    defaults.update(kw)
    return CodecParams(**defaults)


def test_decoder_matches_encoder_reconstruction_exactly():
    """THE codec invariant: decoder output == encoder reference frames."""
    params = small_params()
    frames = synthetic_sequence(params.width, params.height, num_frames=7)
    bitstream, recon, _stats = encode_sequence(frames, params)
    decoded, _ = decode_sequence(bitstream)
    assert len(decoded) == len(frames)
    for d, r in zip(decoded, recon):
        assert np.array_equal(d.y, r.y)
        assert np.array_equal(d.cb, r.cb)
        assert np.array_equal(d.cr, r.cr)


def test_roundtrip_quality():
    params = small_params(q_i=4, q_p=6, q_b=8)
    frames = synthetic_sequence(params.width, params.height, num_frames=6, noise=1.0)
    bitstream, _recon, _stats = encode_sequence(frames, params)
    decoded, _ = decode_sequence(bitstream)
    for orig, dec in zip(frames, decoded):
        assert psnr(orig.y, dec.y) > 28.0


def test_compression_actually_compresses():
    params = small_params()
    frames = synthetic_sequence(params.width, params.height, num_frames=6)
    bitstream, _, _ = encode_sequence(frames, params)
    raw = sum(f.y.size + f.cb.size + f.cr.size for f in frames)
    assert len(bitstream) < raw / 2


def test_i_frames_cost_more_bits_than_b():
    params = small_params(gop_n=6, gop_m=3)
    frames = synthetic_sequence(params.width, params.height, num_frames=12)
    _, _, stats = encode_sequence(frames, params)
    i_bits = [b for t, b in zip(stats.frame_types, stats.frame_bits) if t is FrameType.I]
    b_bits = [b for t, b in zip(stats.frame_types, stats.frame_bits) if t is FrameType.B]
    assert min(i_bits) > max(b_bits)


def test_p_and_b_frames_use_motion():
    params = small_params(gop_n=6, gop_m=3)
    frames = synthetic_sequence(params.width, params.height, num_frames=12)
    _, _, stats = encode_sequence(frames, params)
    inter_modes = [m for m in stats.mb_modes if m is not MbMode.INTRA]
    assert inter_modes, "no inter macroblocks found — ME is not working"


def test_all_intra_gop():
    params = small_params(gop_n=1, gop_m=1)
    frames = synthetic_sequence(params.width, params.height, num_frames=3)
    bitstream, recon, stats = encode_sequence(frames, params)
    assert all(t is FrameType.I for t in stats.frame_types)
    decoded, _ = decode_sequence(bitstream)
    for d, r in zip(decoded, recon):
        assert np.array_equal(d.y, r.y)


def test_no_b_frame_gop():
    params = small_params(gop_n=6, gop_m=1)
    frames = synthetic_sequence(params.width, params.height, num_frames=8)
    bitstream, recon, stats = encode_sequence(frames, params)
    assert FrameType.B not in stats.frame_types
    decoded, _ = decode_sequence(bitstream)
    for d, r in zip(decoded, recon):
        assert np.array_equal(d.y, r.y)


def test_single_frame():
    params = small_params()
    frames = synthetic_sequence(params.width, params.height, num_frames=1)
    bitstream, recon, _ = encode_sequence(frames, params)
    decoded, _ = decode_sequence(bitstream)
    assert np.array_equal(decoded[0].y, recon[0].y)


def test_decode_params_roundtrip():
    params = small_params(q_i=5, q_p=7, q_b=9)
    frames = synthetic_sequence(params.width, params.height, num_frames=4)
    bitstream, _, _ = encode_sequence(frames, params)
    _, got = decode_sequence(bitstream)
    assert (got.width, got.height) == (params.width, params.height)
    assert (got.q_i, got.q_p, got.q_b) == (5, 7, 9)
    assert (got.gop_n, got.gop_m) == (params.gop_n, params.gop_m)


def test_corrupt_magic_rejected():
    from repro.media.bitstream import BitstreamError

    with pytest.raises(BitstreamError, match="magic"):
        decode_sequence(b"XXXX\x00\x00\x00\x00")


def test_truncated_stream_detected():
    params = small_params()
    frames = synthetic_sequence(params.width, params.height, num_frames=3)
    bitstream, _, _ = encode_sequence(frames, params)
    from repro.media.bitstream import BitstreamError

    with pytest.raises((BitstreamError, ValueError)):
        decode_sequence(bitstream[: len(bitstream) // 2])


@pytest.mark.parametrize("size", [dict(width=0), dict(height=0), dict(width=-16), dict(width=20)])
def test_frame_size_must_be_positive_multiple_of_16(size):
    with pytest.raises(ValueError, match="dimensions must be positive multiples of 16"):
        small_params(**size)


def test_frame_shape_mismatch_rejected():
    params = small_params()
    frames = synthetic_sequence(64, 48, num_frames=2)  # wrong size
    with pytest.raises(ValueError, match="shape"):
        encode_sequence(frames, params)


def test_workload_irregularity_ratio():
    """Paper §2.2: worst/average load can reach ~10x.  Our per-MB
    coefficient counts must show strong irregularity."""
    params = small_params(gop_n=12, gop_m=3)
    frames = synthetic_sequence(params.width, params.height, num_frames=12)
    _, _, stats = encode_sequence(frames, params)
    pairs = np.array(stats.mb_pairs)
    assert pairs.max() >= 4 * max(1.0, pairs.mean() / 2)  # strongly skewed
    assert pairs.min() <= 2  # some MBs code (almost) nothing
