"""Ready-made Kahn application graphs for the media workloads.

* :func:`decode_graph` — the MPEG-2 decoder process network of the
  paper's Figure 2: VLD → RLSQ → DCT → MC → DISP plus the VLD → MC
  motion-vector side stream.
* :func:`encode_graph` — the encoder with its reconstruction loop:
  ME → FDCT → QRLE → (VLE, IQ → IDCT → RECON → back to ME).
* :func:`timeshift_graph` — encode ∥ decode on one instance (the
  paper's §6 time-shift use case), sharing coprocessors through
  multi-tasking.

Buffer sizes default to a small number of packets per stream; the
sync-granularity and buffer-sizing benches sweep them.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.kahn.graph import ApplicationGraph, TaskNode
from repro.media.bitstream import BitReader
from repro.media.codec import CodecParams, read_sequence_header
from repro.media.packets import HEADER_SIZE
from repro.media.tasks import (
    CostModel,
    DctKernel,
    DispKernel,
    IqKernel,
    McKernel,
    MeKernel,
    QrleKernel,
    ReconKernel,
    RlsqInvKernel,
    VldKernel,
    VleKernel,
)
from repro.media.video import Frame

__all__ = ["decode_graph", "encode_graph", "timeshift_graph", "default_buffer_sizes"]

#: worst-case coefficient payload: 6 blocks x (2 + 64 x 3) bytes
_COEF_MAX = 6 * (2 + 64 * 3)


def default_buffer_sizes(packets: int = 3) -> Dict[str, int]:
    """Stream buffer sizes holding ``packets`` worst-case packets."""
    if packets < 1:
        raise ValueError("packets must be >= 1")
    return {
        "coef": packets * (HEADER_SIZE + _COEF_MAX),
        "mv": packets * HEADER_SIZE,
        "coef_i16": packets * (HEADER_SIZE + 6 * 64 * 2),
        "coef_f64": packets * (HEADER_SIZE + 6 * 64 * 8),
        "levels": packets * (HEADER_SIZE + 6 * 64 * 2),
        "residual": packets * (HEADER_SIZE + 6 * 64 * 2),
        "pixels": packets * (HEADER_SIZE + 384),
    }


def decode_graph(
    bitstream: bytes,
    mapping: Optional[Dict[str, str]] = None,
    buffer_packets: int = 3,
    cost: Optional[CostModel] = None,
    name: str = "decode",
    budgets: Optional[Dict[str, int]] = None,
) -> ApplicationGraph:
    """Figure 2's decoder network for one compressed stream.

    ``mapping`` assigns task name -> coprocessor name (e.g. the Figure 8
    instance mapping); None leaves tasks auto-mappable.
    """
    cost = cost or CostModel()
    sizes = default_buffer_sizes(buffer_packets)
    mapping = mapping or {}
    budgets = budgets or {}
    g = ApplicationGraph(name)

    # the sequence header gives MC/DISP their geometry — mirrors the
    # CPU configuring tasks at run time
    params, num_frames = read_sequence_header(BitReader(bitstream))

    def node(tname: str, factory, ports, task_info: int = 0) -> TaskNode:
        return g.add_task(
            TaskNode(
                tname,
                factory,
                ports,
                task_info=task_info,
                mapping=mapping.get(tname),
                budget=budgets.get(tname, 2000),
            )
        )

    node("vld", lambda: VldKernel(bitstream, cost), VldKernel.PORTS)
    node("rlsq", lambda: RlsqInvKernel(cost), RlsqInvKernel.PORTS)
    # the weakly-programmable DCT: task_info bit 0 selects the direction
    node("idct", lambda: DctKernel(cost), DctKernel.PORTS, task_info=0)
    node("mc", lambda: McKernel(params, num_frames, cost), McKernel.PORTS)
    node("disp", lambda: DispKernel(params, num_frames, cost), DispKernel.PORTS)

    g.connect("vld.coef_out", "rlsq.in", name="coef", buffer_size=sizes["coef"])
    g.connect("vld.mv_out", "mc.mv_in", name="mv", buffer_size=sizes["mv"] * 8)
    g.connect("rlsq.out", "idct.in", name="dequant", buffer_size=sizes["coef_i16"])
    g.connect("idct.out", "mc.resid_in", name="resid", buffer_size=sizes["residual"])
    g.connect("mc.out", "disp.in", name="recon", buffer_size=sizes["pixels"])
    g.validate()
    return g


def encode_graph(
    frames: Sequence[Frame],
    params: CodecParams,
    mapping: Optional[Dict[str, str]] = None,
    buffer_packets: int = 3,
    cost: Optional[CostModel] = None,
    name: str = "encode",
    budgets: Optional[Dict[str, int]] = None,
) -> ApplicationGraph:
    """The encoder network with its closed reconstruction loop."""
    cost = cost or CostModel()
    sizes = default_buffer_sizes(buffer_packets)
    mapping = mapping or {}
    budgets = budgets or {}
    num_frames = len(frames)
    g = ApplicationGraph(name)

    def node(tname: str, factory, ports, task_info: int = 0) -> TaskNode:
        return g.add_task(
            TaskNode(
                tname,
                factory,
                ports,
                task_info=task_info,
                mapping=mapping.get(tname),
                budget=budgets.get(tname, 2000),
            )
        )

    node("me", lambda: MeKernel(frames, params, cost), MeKernel.PORTS)
    # one DCT kernel, two configurations: the paper's weakly-
    # programmable coprocessor ("one bit to select whether a forward or
    # inverse DCT is to be performed", §3.2)
    node("fdct", lambda: DctKernel(cost), DctKernel.PORTS, task_info=DctKernel.FORWARD)
    node("qrle", lambda: QrleKernel(cost), QrleKernel.PORTS)
    node("vle", lambda: VleKernel(params, num_frames, cost), VleKernel.PORTS)
    node("iq", lambda: IqKernel(cost), IqKernel.PORTS)
    node("idct_r", lambda: DctKernel(cost), DctKernel.PORTS, task_info=0)
    node("recon", lambda: ReconKernel(params, num_frames, cost), ReconKernel.PORTS)

    g.connect("me.resid_out", "fdct.in", name="resid_f", buffer_size=sizes["residual"])
    g.connect("me.pred_out", "recon.pred_in", name="pred", buffer_size=sizes["pixels"] * 2)
    g.connect("fdct.out", "qrle.in", name="coef_f", buffer_size=sizes["coef_f64"])
    g.connect("qrle.sym_out", "vle.in", name="symbols", buffer_size=sizes["coef"])
    g.connect("qrle.lev_out", "iq.in", name="levels", buffer_size=sizes["levels"])
    g.connect("iq.out", "idct_r.in", name="dequant_r", buffer_size=sizes["coef_i16"])
    g.connect("idct_r.out", "recon.resid_in", name="resid_r", buffer_size=sizes["residual"])
    g.connect("recon.recon_out", "me.recon_in", name="refs", buffer_size=sizes["pixels"] * 2)
    g.validate()
    return g


def timeshift_graph(
    raw_frames: Sequence[Frame],
    enc_params: CodecParams,
    playback_bitstream: bytes,
    mapping_encode: Optional[Dict[str, str]] = None,
    mapping_decode: Optional[Dict[str, str]] = None,
    buffer_packets: int = 3,
    cost: Optional[CostModel] = None,
) -> ApplicationGraph:
    """Time-shift: record (encode) one programme while playing back
    (decoding) another — the paper's §6 simultaneous encode+decode
    scenario, run as two Kahn networks on one Eclipse instance."""
    enc = encode_graph(
        raw_frames, enc_params, mapping_encode, buffer_packets, cost, name="timeshift"
    )
    dec = decode_graph(
        playback_bitstream, mapping_decode, buffer_packets, cost, name="playback"
    )
    merged = enc.merge(dec, prefix="play_")
    merged.validate()
    return merged
