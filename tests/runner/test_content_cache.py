"""The factories' per-process content cache (``repro.workloads``).

A sweep's factories encode one synthetic programme per process instead
of once per point.  These tests pin what makes that sound: the cached
bytes are exactly what a direct synthesise→encode(→mux) gives, keyword
and positional call sites share one entry, only immutable ``bytes``
are cached, and a run's served payload does not depend on which runs
came before it in the process.
"""

import json
import os
import subprocess
import sys

from repro.media import CodecParams, encode_sequence, synthetic_sequence
from repro.media.audio import BLOCK_SAMPLES, adpcm_encode, synthetic_pcm
from repro.media.transport import AUDIO_PID, VIDEO_PID, ts_mux
from repro.runner import RunSpec, _execute_spec
from repro.service.store import result_payload
from repro.workloads import (
    _av_transport_stream,
    _av_ts,
    _video_es,
    conferencing_run,
    decode_run,
    synthetic_video_es,
)

# a 32×16 two-frame programme with two audio blocks
W, H, FRAMES, GOP_N, GOP_M, BLOCKS = 32, 16, 2, 2, 1, 2


def direct_video_es() -> bytes:
    codec = CodecParams(width=W, height=H, gop_n=GOP_N, gop_m=GOP_M)
    bitstream, _, _ = encode_sequence(synthetic_sequence(W, H, FRAMES, noise=1.0), codec)
    return bitstream


def test_cached_video_es_equals_a_direct_encode():
    assert synthetic_video_es(W, H, FRAMES, GOP_N, GOP_M) == direct_video_es()


def test_cached_transport_stream_equals_a_direct_mux():
    audio_es = adpcm_encode(synthetic_pcm(BLOCK_SAMPLES * BLOCKS))
    expected = ts_mux({VIDEO_PID: direct_video_es(), AUDIO_PID: audio_es})
    codec, ts = _av_transport_stream(W, H, FRAMES, GOP_N, GOP_M, BLOCKS)
    assert ts == expected
    assert codec == CodecParams(width=W, height=H, gop_n=GOP_N, gop_m=GOP_M)


def test_keyword_and_factory_calls_share_one_entry():
    _av_ts.cache_clear()
    _av_transport_stream(W, H, FRAMES, gop_n=GOP_N, gop_m=GOP_M, audio_blocks=BLOCKS)
    info = _av_ts.cache_info()
    assert (info.misses, info.hits) == (1, 0)
    conferencing_run(width=W, height=H, frames=FRAMES, gop_n=GOP_N, gop_m=GOP_M,
                     audio_blocks=BLOCKS, loss_seed=1)
    conferencing_run(width=W, height=H, frames=FRAMES, gop_n=GOP_N, gop_m=GOP_M,
                     audio_blocks=BLOCKS, loss_seed=2)
    info = _av_ts.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)

    _video_es.cache_clear()
    synthetic_video_es(W, H, FRAMES, gop_n=GOP_N, gop_m=GOP_M)
    decode_run(width=W, height=H, frames=FRAMES, gop_n=GOP_N, gop_m=GOP_M)
    info = _video_es.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_cache_holds_only_bytes_and_is_bounded():
    codec_a, ts = _av_transport_stream(W, H, FRAMES, GOP_N, GOP_M, BLOCKS)
    codec_b, _ = _av_transport_stream(W, H, FRAMES, GOP_N, GOP_M, BLOCKS)
    assert type(ts) is bytes
    assert type(synthetic_video_es(W, H, FRAMES, GOP_N, GOP_M)) is bytes
    assert codec_a is not codec_b  # codec parameters are built per call
    assert _video_es.cache_info().maxsize == _av_ts.cache_info().maxsize == 16


# ---------------------------------------------------------------------------
# soundness: nothing leaks from one run into the next
# ---------------------------------------------------------------------------
FACTORY = "repro.workloads:conferencing_run"
CONTENT_A = dict(width=32, height=16, frames=3, gop_n=3, gop_m=1, audio_blocks=2)
CONTENT_B = dict(width=32, height=16, frames=2, gop_n=2, gop_m=2, audio_blocks=3)
LOSS_SEED = 1

FRESH_INTERPRETER = (
    "import json, sys\n"
    "from repro.runner import RunSpec, _execute_spec\n"
    "from repro.service.store import result_payload\n"
    f"spec = RunSpec({FACTORY!r}, json.loads(sys.argv[1]), label='a')\n"
    "sys.stdout.buffer.write(result_payload(_execute_spec(0, spec)))\n"
)


def served(content: dict) -> bytes:
    spec = RunSpec(FACTORY, dict(content, loss_seed=LOSS_SEED), label="a")
    return result_payload(_execute_spec(0, spec))


def served_by_fresh_interpreter(content: dict) -> bytes:
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))
    return subprocess.run(
        [sys.executable, "-c", FRESH_INTERPRETER, json.dumps(dict(content, loss_seed=LOSS_SEED))],
        capture_output=True, check=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=src),
    ).stdout


def test_payload_does_not_depend_on_earlier_runs_in_the_process():
    """A, then B, then A again in one process: both A payloads, and the
    B payload, are the bytes a fresh interpreter computes for each."""
    first = served(CONTENT_A)
    other = served(CONTENT_B)
    again = served(CONTENT_A)
    assert again == first
    assert first == served_by_fresh_interpreter(CONTENT_A)
    assert other == served_by_fresh_interpreter(CONTENT_B)
    assert other != first
