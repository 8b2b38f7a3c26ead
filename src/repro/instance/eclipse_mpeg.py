"""The first Eclipse instantiation (paper Figure 8).

Coprocessors: VLD, RLSQ (run-length + scan + quantization, both
directions), DCT (forward + inverse), MC/ME, and the programmable
media processor (DSP-CPU) running the software tasks (VLE, display).
Communication: one shared on-chip SRAM (32 kB in the paper) behind
separate 128-bit read and write buses; MC/ME and VLD have dedicated
off-chip connections (modelled by :class:`repro.hw.dram.OffChipMemory`).

The standard mappings place each media task on the coprocessor the
paper names for it; multi-tasking lets one instance run decode and
encode networks simultaneously (time-shift, §6).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.config import CoprocessorSpec, ShellParams, SystemParams
from repro.core.system import EclipseSystem
from repro.sim.faults import FaultPlan
from repro.media.codec import CodecParams
from repro.media.pipelines import decode_graph, encode_graph, timeshift_graph
from repro.media.tasks import CostModel
from repro.media.video import Frame

__all__ = [
    "COPROCESSORS",
    "DECODE_MAPPING",
    "ENCODE_MAPPING",
    "av_decode_on_instance",
    "build_mpeg_instance",
    "decode_on_instance",
    "dual_decode_on_instance",
    "encode_on_instance",
    "mixed_decode_on_instance",
    "timeshift_on_instance",
]

#: Figure 8's computation units.  The DSP-CPU runs the same kernels in
#: software, slower (compute_factor) and with software-ish shell costs.
COPROCESSORS = ("vld", "rlsq", "dct", "mcme", "dsp")

#: decode task -> coprocessor (Figure 2 onto Figure 8)
DECODE_MAPPING: Dict[str, str] = {
    "vld": "vld",
    "rlsq": "rlsq",
    "idct": "dct",
    "mc": "mcme",
    "disp": "dsp",
}

#: encode task -> coprocessor; note the RLSQ and DCT coprocessors each
#: time-share a forward and an inverse task — the multi-tasking reuse
#: the paper highlights ("the DCT coprocessor can time-share both the
#: forward and inverse DCT functions").
ENCODE_MAPPING: Dict[str, str] = {
    "me": "mcme",
    "fdct": "dct",
    "qrle": "rlsq",
    "iq": "rlsq",
    "idct_r": "dct",
    "recon": "mcme",
    "vle": "dsp",
}


def build_mpeg_instance(
    params: Optional[SystemParams] = None,
    shell: Optional[ShellParams] = None,
    dsp_compute_factor: float = 4.0,
    faults: Optional["FaultPlan"] = None,
) -> EclipseSystem:
    """Assemble the Figure 8 instance.

    Defaults follow §6: 32 kB SRAM, 128-bit (16 B) buses; off-chip
    access latency of 60 coprocessor cycles (~400 ns at 150 MHz —
    2002-era SDRAM random access).  Pass a ``SystemParams`` with a
    larger SRAM for the time-shift scenario (two applications'
    buffers).
    """
    params = params or SystemParams(dram_latency=60)
    shell = shell or ShellParams()
    specs = [
        CoprocessorSpec("vld", shell=shell),
        CoprocessorSpec("rlsq", shell=shell),
        CoprocessorSpec("dct", shell=shell),
        CoprocessorSpec("mcme", shell=shell),
        CoprocessorSpec("dsp", is_software=True, compute_factor=dsp_compute_factor, shell=shell),
    ]
    return EclipseSystem(specs, params, faults=faults)


def decode_on_instance(
    bitstream: bytes,
    system: Optional[EclipseSystem] = None,
    buffer_packets: int = 3,
    cost: Optional[CostModel] = None,
    run: bool = True,
):
    """Decode ``bitstream`` on a Figure 8 instance; returns
    (system, result-or-None)."""
    system = system or build_mpeg_instance()
    graph = decode_graph(bitstream, mapping=DECODE_MAPPING, buffer_packets=buffer_packets, cost=cost)
    system.configure(graph)
    return (system, system.run()) if run else (system, None)


def encode_on_instance(
    frames: Sequence[Frame],
    params: CodecParams,
    system: Optional[EclipseSystem] = None,
    buffer_packets: int = 3,
    cost: Optional[CostModel] = None,
    run: bool = True,
):
    """Encode ``frames`` on a Figure 8 instance."""
    system = system or build_mpeg_instance(SystemParams(sram_size=64 * 1024))
    graph = encode_graph(
        frames, params, mapping=ENCODE_MAPPING, buffer_packets=buffer_packets, cost=cost
    )
    system.configure(graph)
    return (system, system.run()) if run else (system, None)


def dual_decode_on_instance(
    bitstream_a: bytes,
    bitstream_b: bytes,
    system: Optional[EclipseSystem] = None,
    buffer_packets: int = 3,
    cost: Optional[CostModel] = None,
    run: bool = True,
):
    """Decode two independent streams simultaneously on one instance —
    the paper's §6 headline scenario ("decoding of two high-definition
    MPEG-2 streams simultaneously").  Every coprocessor time-shares the
    corresponding task of both decoder networks."""
    system = system or build_mpeg_instance(SystemParams(sram_size=64 * 1024, dram_latency=60))
    g = decode_graph(bitstream_a, mapping=DECODE_MAPPING, buffer_packets=buffer_packets, cost=cost, name="decode_a")
    g2 = decode_graph(bitstream_b, mapping=DECODE_MAPPING, buffer_packets=buffer_packets, cost=cost, name="decode_b")
    g.merge(g2, prefix="s2_")
    system.configure(g)
    return (system, system.run()) if run else (system, None)


def mixed_decode_on_instance(
    mpeg_bitstream: bytes,
    still_bitstream: bytes,
    system: Optional[EclipseSystem] = None,
    buffer_packets: int = 3,
    cost: Optional[CostModel] = None,
    run: bool = True,
):
    """A programmable mix of application types (§8's outlook): MPEG-2
    decode on the hardwired coprocessors, plus an intra-only
    still-texture stream decoded *entirely in software* on the media
    processor — "typically, the functions eligible for software
    implementation are specific for one application only — such as
    still-texture decoding in MPEG-4" (§3).

    ``still_bitstream`` should be an all-intra (gop_n=1) sequence."""
    system = system or build_mpeg_instance(SystemParams(sram_size=64 * 1024, dram_latency=60))
    g = decode_graph(mpeg_bitstream, mapping=DECODE_MAPPING, buffer_packets=buffer_packets, cost=cost, name="mpeg")
    all_software = {name: "dsp" for name in DECODE_MAPPING}
    g2 = decode_graph(still_bitstream, mapping=all_software, buffer_packets=buffer_packets, cost=cost, name="still")
    g.merge(g2, prefix="still_")
    system.configure(g)
    return (system, system.run()) if run else (system, None)


def av_decode_on_instance(
    ts: bytes,
    params: "CodecParams",
    num_frames: int,
    system: Optional[EclipseSystem] = None,
    buffer_packets: int = 3,
    cost: Optional[CostModel] = None,
    run: bool = True,
):
    """The complete §6 application on the Figure 8 instance: software
    demux + software audio decode on the DSP-CPU, video decode on the
    hardwired coprocessors — all from one transport stream."""
    from repro.media.av_pipeline import AV_DECODE_MAPPING, av_decode_graph

    system = system or build_mpeg_instance()
    graph = av_decode_graph(
        ts, params, num_frames, mapping=AV_DECODE_MAPPING, buffer_packets=buffer_packets, cost=cost
    )
    system.configure(graph)
    return (system, system.run()) if run else (system, None)


def timeshift_on_instance(
    raw_frames: Sequence[Frame],
    enc_params: CodecParams,
    playback_bitstream: bytes,
    system: Optional[EclipseSystem] = None,
    buffer_packets: int = 3,
    cost: Optional[CostModel] = None,
    run: bool = True,
):
    """Simultaneous encode + decode (time-shift) on one instance."""
    system = system or build_mpeg_instance(SystemParams(sram_size=96 * 1024))
    graph = timeshift_graph(
        raw_frames,
        enc_params,
        playback_bitstream,
        mapping_encode=ENCODE_MAPPING,
        mapping_decode=DECODE_MAPPING,
        buffer_packets=buffer_packets,
        cost=cost,
    )
    system.configure(graph)
    return (system, system.run()) if run else (system, None)
