"""The complete §6 application: demux + audio decode + video decode.

"Audio decoding, variable-length encoding, and de-multiplexing are
executed in software on the media processor (DSP-CPU)" while the
hardwired coprocessors decode the video.  This graph is that full
picture: a transport stream feeds a software demultiplexer, whose
video elementary stream drives the streaming VLD → RLSQ → DCT → MC →
DISP chain on the coprocessors and whose audio stream drives the
software ADPCM decoder → PCM sink on the DSP.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.kahn.graph import ApplicationGraph, TaskNode
from repro.kahn.kernel import Kernel
from repro.media.audio import AdpcmDecoderKernel, BLOCK_BYTES, BLOCK_SAMPLES, PcmSinkKernel
from repro.media.codec import CodecParams
from repro.media.conceal import damaged_audio_blocks, overlapping_frames, video_frame_spans
from repro.media.pipelines import default_buffer_sizes
from repro.media.tasks import CostModel, DctKernel, DispKernel, McKernel, RlsqInvKernel
from repro.media.transport import AUDIO_PID, VIDEO_PID, DemuxKernel, VldStreamKernel, ts_demux

__all__ = ["av_decode_graph", "lossy_av_decode_graph", "AV_DECODE_MAPPING"]

#: task -> coprocessor for the Figure 8 instance: software tasks on the
#: DSP, video pipeline on the hardwired units
AV_DECODE_MAPPING: Dict[str, str] = {
    "demux": "dsp",
    "audio_dec": "dsp",
    "pcm_sink": "dsp",
    "vld": "vld",
    "rlsq": "rlsq",
    "idct": "dct",
    "mc": "mcme",
    "disp": "dsp",
}


def _av_graph(
    name: str,
    params: CodecParams,
    num_frames: int,
    mapping: Optional[Dict[str, str]],
    buffer_packets: int,
    cost: CostModel,
    demux: Callable[[], Kernel],
    vld: Callable[[], Kernel],
    audio_dec: Callable[[], Kernel],
) -> ApplicationGraph:
    """The A/V decode network around its three front-end kernel
    factories: demux, streaming VLD and audio decoder."""
    sizes = default_buffer_sizes(buffer_packets)
    mapping = mapping or {}
    g = ApplicationGraph(name)

    def node(tname, factory, ports):
        g.add_task(TaskNode(tname, factory, ports, mapping=mapping.get(tname)))

    node("demux", demux, DemuxKernel.PORTS)
    node("vld", vld, VldStreamKernel.PORTS)
    node("audio_dec", audio_dec, AdpcmDecoderKernel.PORTS)
    node("pcm_sink", lambda: PcmSinkKernel(), PcmSinkKernel.PORTS)
    node("rlsq", lambda: RlsqInvKernel(cost), RlsqInvKernel.PORTS)
    node("idct", lambda: DctKernel(cost), DctKernel.PORTS)
    node("mc", lambda: McKernel(params, num_frames, cost), McKernel.PORTS)
    node("disp", lambda: DispKernel(params, num_frames, cost), DispKernel.PORTS)

    g.connect("demux.video_out", "vld.es_in", name="video_es", buffer_size=2048)
    g.connect(
        "demux.audio_out",
        "audio_dec.in",
        name="audio_es",
        buffer_size=4 * BLOCK_BYTES,
    )
    g.connect(
        "audio_dec.out",
        "pcm_sink.in",
        name="pcm",
        buffer_size=4 * BLOCK_SAMPLES * 2,
    )
    g.connect("vld.coef_out", "rlsq.in", name="coef", buffer_size=sizes["coef"])
    g.connect("vld.mv_out", "mc.mv_in", name="mv", buffer_size=sizes["mv"] * 8)
    g.connect("rlsq.out", "idct.in", name="dequant", buffer_size=sizes["coef_i16"])
    g.connect("idct.out", "mc.resid_in", name="resid", buffer_size=sizes["residual"])
    g.connect("mc.out", "disp.in", name="recon", buffer_size=sizes["pixels"])
    return g


def av_decode_graph(
    ts: bytes,
    params: CodecParams,
    num_frames: int,
    mapping: Optional[Dict[str, str]] = None,
    buffer_packets: int = 3,
    cost: Optional[CostModel] = None,
    name: str = "av_decode",
) -> ApplicationGraph:
    """Build the audio+video decode network for a transport stream."""
    cost = cost or CostModel()
    return _av_graph(
        name, params, num_frames, mapping, buffer_packets, cost,
        demux=lambda: DemuxKernel(ts),
        vld=lambda: VldStreamKernel(params, num_frames, cost),
        audio_dec=lambda: AdpcmDecoderKernel(),
    )


def lossy_av_decode_graph(
    ingest_result,
    params: CodecParams,
    num_frames: int,
    mapping: Optional[Dict[str, str]] = None,
    buffer_packets: int = 3,
    cost: Optional[CostModel] = None,
    conceal_budget: float = 0.5,
    name: str = "lossy_av_decode",
) -> ApplicationGraph:
    """The A/V decode network behind a lossy network ingest.

    Takes a :class:`repro.net.IngestResult` and builds the network of
    :func:`av_decode_graph` over the *recovered* stream, its front end
    told what the network damaged: the demux reports the ingest
    statistics, the VLD conceals frames overlapping unrecovered
    erasures, and the audio decoder silences damaged ADPCM blocks.
    When the plan is inert (``loss_active`` false) none of them has
    anything to report, so the run is byte-identical to the packet-free
    pipeline.
    """
    cost = cost or CostModel()
    report = ingest_result.loss_active

    if ingest_result.lost_slots:
        erased = ingest_result.erased_ranges()
        v_erased = erased.get(VIDEO_PID, ())
        a_erased = erased.get(AUDIO_PID, ())
        video_es = ts_demux(ingest_result.original_ts)[VIDEO_PID]
        header_end, spans = video_frame_spans(video_es, params, num_frames)
        damaged = overlapping_frames(spans, v_erased)
        header_damaged = bool(overlapping_frames([(0, header_end)], v_erased))
        audio_damaged = damaged_audio_blocks(a_erased)
    else:
        # nothing erased: skip the clean-parse damage mapping entirely,
        # so a 0%-loss ingest costs (nearly) nothing end-to-end
        header_end, spans = 0, ()
        damaged, audio_damaged = set(), set()
        header_damaged = False

    recovered = ingest_result.recovered_ts
    lost = ingest_result.lost_slots
    net_stats = ingest_result.stats.to_dict()
    return _av_graph(
        name, params, num_frames, mapping, buffer_packets, cost,
        demux=lambda: DemuxKernel(
            recovered, lost_slots=lost, net_stats=net_stats, report_always=report
        ),
        vld=lambda: VldStreamKernel(
            params,
            num_frames,
            cost,
            damaged_frames=damaged,
            frame_spans=spans,
            header_end_bit=header_end,
            header_damaged=header_damaged,
            conceal_budget=conceal_budget,
            report_always=report,
        ),
        audio_dec=lambda: AdpcmDecoderKernel(
            damaged_blocks=audio_damaged, report_always=report
        ),
    )
