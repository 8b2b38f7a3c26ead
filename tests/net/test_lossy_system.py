"""System-level lossy-ingest acceptance: identity, degradation, accounting.

These are the end-to-end guarantees the networking subsystem makes
(docs/networking.md):

* 0% loss is *byte-identical* to the packet-free pipeline — the whole
  transport disappears from the result, not just from the output.
* Loss degrades *gracefully*: a 0→20% drop sweep shows monotone damage,
  with exact decoded/concealed accounting and zero crashes.
"""

import json

import pytest

from repro.media.av_pipeline import (
    AV_DECODE_MAPPING,
    av_decode_graph,
    lossy_av_decode_graph,
)
from repro.media.conceal import overlapping_frames, video_frame_spans
from repro.media.transport import VIDEO_PID, ts_demux
from repro.net import ingest
from repro.sim.faults import LossPlan
from repro.workloads import _av_transport_stream, conferencing_run

FRAMES = 3


def small_content():
    return _av_transport_stream(48, 32, FRAMES, gop_n=3, gop_m=1, audio_blocks=3)


def run_result_json(system, graph) -> str:
    system.configure(graph)
    result = system.run()
    d = result.to_dict()
    d["histories"] = {k: v.hex() for k, v in sorted(result.histories.items())}
    return json.dumps(d, sort_keys=True), result


def fresh_system():
    from repro.instance.eclipse_mpeg import build_mpeg_instance

    return build_mpeg_instance()


# ---------------------------------------------------------------------------
# identity guarantees
# ---------------------------------------------------------------------------
def test_zero_loss_is_byte_identical_to_the_packet_free_pipeline():
    codec, ts = small_content()
    res = ingest(ts, LossPlan())
    plain, _ = run_result_json(
        fresh_system(), av_decode_graph(ts, codec, FRAMES, mapping=AV_DECODE_MAPPING)
    )
    lossy, result = run_result_json(
        fresh_system(),
        lossy_av_decode_graph(res, codec, FRAMES, mapping=AV_DECODE_MAPPING,
                              name="av_decode"),
    )
    assert plain == lossy
    assert result.degradation is None
    assert "degradation" not in result.to_dict()


# ---------------------------------------------------------------------------
# graceful degradation
# ---------------------------------------------------------------------------
def test_loss_sweep_degrades_monotonically():
    """0% → 20% drop (5 seeds each): mean damage grows monotonically,
    every recovered stream stays structurally decodable (the damage
    mapping itself is the cheap proxy — the full-DES behaviour at the
    endpoints is pinned by the tests above and below)."""
    codec, ts = small_content()
    video_es = ts_demux(ts)[VIDEO_PID]
    header_end, spans = video_frame_spans(video_es, codec, FRAMES)
    mean_lost, mean_concealed = [], []
    for drop in (0.0, 0.05, 0.10, 0.15, 0.20):
        lost = concealed = 0
        for seed in range(5):
            plan = LossPlan(seed=seed, drop_prob=drop, fec_group=4, max_rtx=1)
            res = ingest(ts, plan)
            lost += len(res.lost_slots)
            erased = res.erased_ranges().get(VIDEO_PID, ())
            concealed += len(overlapping_frames(spans, erased))
        mean_lost.append(lost / 5)
        mean_concealed.append(concealed / 5)
    assert mean_lost[0] == 0 and mean_concealed[0] == 0
    assert mean_lost == sorted(mean_lost)
    assert mean_concealed == sorted(mean_concealed)
    assert mean_lost[-1] > 0  # 20% drop actually hurts


def test_unrecoverable_loss_conceals_with_exact_accounting():
    """FEC off, RTX off, heavy drop: the decode still completes, and
    every frame/block is accounted for as decoded or concealed."""
    system, graph = conferencing_run(
        frames=4, gop_n=4, gop_m=2, audio_blocks=4,
        loss_spec="drop=0.35,fec_group=0,max_rtx=0", loss_seed=1,
    )
    system.configure(graph)
    result = system.run()
    assert result.completed
    deg = result.degradation
    assert deg is not None
    video = deg["tasks"]["vld"]
    assert video["frames_concealed"] > 0
    assert video["frames_decoded"] + video["frames_concealed"] == video["frames_total"]
    audio = deg["tasks"]["audio_dec"]
    assert audio["blocks_decoded"] + audio["blocks_silenced"] == audio["blocks_total"]
    transport = deg["tasks"]["demux"]
    assert transport["packets_erased"] == transport["net"]["slots_lost"] > 0
    # over the 0.5 budget -> N501 diagnosis travels with the result
    if video["over_budget"]:
        assert any(d["rule"] == "N501" for d in deg["diagnoses"])


@pytest.mark.parametrize("seed", range(5))
def test_no_plan_crashes_the_decode(seed):
    system, graph = conferencing_run(
        frames=FRAMES, gop_n=3, gop_m=1, audio_blocks=3,
        loss_spec="heavy", loss_seed=seed,
    )
    system.configure(graph)
    result = system.run()
    assert result.completed
    if result.degradation is not None:
        video = result.degradation["tasks"].get("vld")
        if video is not None:
            assert (video["frames_decoded"] + video["frames_concealed"]
                    == video["frames_total"])


def test_degradation_serializes_deterministically():
    system, graph = conferencing_run(
        frames=FRAMES, gop_n=3, gop_m=1, audio_blocks=3,
        loss_spec="moderate", loss_seed=3,
    )
    system.configure(graph)
    d = system.run().to_dict()
    assert "degradation" in d
    assert json.loads(json.dumps(d)) == d
