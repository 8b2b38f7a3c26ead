"""Mixed-level simulation: the §7 gradual-refinement methodology.

"The simulation environment supports a design trajectory with gradual
refinement of Kahn application models into cycle-accurate Eclipse
coprocessor models.  Thereto, the simulator supports mixed-level
simulation at various levels of abstraction."

This module provides the *coarse* end of that trajectory for the video
decoder: :class:`FusedVideoBackendKernel` implements RLSQ + IDCT + MC
as ONE functional task with a lumped cycle cost — the kind of
early-phase model an architect writes before partitioning work across
coprocessors.  :func:`decode_graph_coarse` builds the matching
application graph (VLD → fused backend → DISP).

Because both abstraction levels share the reference codec's arithmetic,
their outputs are bit-identical; what refinement changes is the
*performance estimate* — the refined model exposes the task-level
parallelism (and the synchronization/communication costs) the fused
model hides.  EXP-A8 quantifies exactly that.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.kahn.graph import ApplicationGraph, Direction, PortSpec, TaskNode
from repro.kahn.kernel import Kernel, KernelContext, StepOutcome
from repro.media.bitstream import BitReader, BitstreamError
from repro.media.codec import (
    CodecParams,
    mb_prediction,
    read_sequence_header,
    reconstruct_macroblock,
)
from repro.media.gop import FrameType
from repro.media.packets import (
    HEADER_SIZE,
    mb_from_header,
    pack_pixels,
    unpack_coef_payload,
)
from repro.media.pipelines import default_buffer_sizes
from repro.media.tasks import (
    CostModel,
    DispKernel,
    VldKernel,
    emit,
    read_packet,
    reserve_all,
)
from repro.media.tasks import _new_frame
from repro.media.video import Frame

__all__ = ["FusedVideoBackendKernel", "decode_graph_coarse"]


class FusedVideoBackendKernel(Kernel):
    """RLSQ + IDCT + MC as one coarse functional task.

    Consumes the VLD's coefficient and motion-vector packets, performs
    the complete macroblock reconstruction via the reference-codec
    helpers, and emits reconstructed pixel packets.  The cycle cost per
    macroblock is the *sum* of the three refined tasks' models — the
    aggregate estimate an unpartitioned model gives.
    """

    PORTS = (
        PortSpec("coef_in", Direction.IN),
        PortSpec("mv_in", Direction.IN),
        PortSpec("out", Direction.OUT),
    )

    OUT_PAYLOAD = 384
    STATE_FIELDS = ("_frame_ptr", "_mb_ptr", "_building", "_refs")

    def __init__(self, params: CodecParams, num_frames: int, cost: Optional[CostModel] = None):
        super().__init__()
        self.cost = cost or CostModel()
        self.params = params
        self._plans = params.gop().coded_order(num_frames)
        self._frame_ptr = 0
        self._mb_ptr = 0
        self._building: Frame = _new_frame(params)
        self._refs: Dict[int, Frame] = {}

    def step(self, ctx: KernelContext):
        if self._frame_ptr >= len(self._plans):
            return StepOutcome.FINISHED
        plan = self._plans[self._frame_ptr]
        status, mv_hdr, _ = yield from read_packet(ctx, "mv_in")
        if status == "eos":
            return StepOutcome.FINISHED
        if status == "abort":
            return StepOutcome.ABORTED
        status, c_hdr, c_payload = yield from read_packet(ctx, "coef_in")
        if status == "eos":
            raise BitstreamError("coef stream ended before mv stream")
        if status == "abort":
            return StepOutcome.ABORTED
        if mv_hdr.mb_index != c_hdr.mb_index:
            raise BitstreamError("mv/coef streams out of step")

        mb = mb_from_header(c_hdr, unpack_coef_payload(c_payload, c_hdr.cbp))
        mb_y, mb_x = divmod(mb.mb_index, self.params.mb_cols)
        fwd = self._refs.get(plan.forward_ref) if plan.forward_ref is not None else None
        bwd = self._refs.get(plan.backward_ref) if plan.backward_ref is not None else None
        pred = mb_prediction(mb.mode, fwd, bwd, mb_y, mb_x, mb.fwd_vec, mb.bwd_vec)
        recon = reconstruct_macroblock(mb, pred, c_hdr.qscale)

        # lumped cost: what the three refined tasks would charge
        n_pairs = sum(len(p) for p in mb.block_pairs)
        n_coded = bin(mb.cbp).count("1")
        from repro.media.codec import MbMode

        n_fetches = {MbMode.INTRA: 0, MbMode.FWD: 1, MbMode.BWD: 1, MbMode.BI: 2}[mb.mode]
        cycles = (
            self.cost.rlsq_per_mb
            + self.cost.rlsq_per_block * n_coded
            + self.cost.rlsq_per_pair * n_pairs
            + self.cost.dct_per_mb
            + self.cost.dct_per_block * n_coded
            + self.cost.mc_per_mb
            + self.cost.mc_add_cycles
        )
        yield ctx.compute(cycles)
        for _ in range(n_fetches):
            yield ctx.external_access(self.cost.mc_fetch_bytes, is_write=False)

        out = mv_hdr.with_payload(self.OUT_PAYLOAD).pack() + pack_pixels(recon)
        ok = yield from reserve_all(ctx, [("out", len(out))])
        if not ok:
            return StepOutcome.ABORTED
        yield from emit(ctx, "out", out)
        if plan.frame_type is not FrameType.B:
            yield ctx.external_access(self.cost.mb_pixel_bytes, is_write=True, posted=True)
        yield ctx.put_space("mv_in", HEADER_SIZE)
        yield ctx.put_space("coef_in", HEADER_SIZE + c_hdr.payload_len)
        # ---- commit state ----
        from repro.media.codec import insert_mb

        insert_mb(self._building, mb_y, mb_x, recon)
        self._mb_ptr += 1
        if self._mb_ptr == self.params.mbs_per_frame:
            if plan.frame_type is not FrameType.B:
                self._refs[plan.display_index] = self._building
                live = {plan.display_index}
                for p in self._plans[self._frame_ptr + 1 :]:
                    if p.forward_ref is not None:
                        live.add(p.forward_ref)
                    if p.backward_ref is not None:
                        live.add(p.backward_ref)
                self._refs = {k: v for k, v in self._refs.items() if k in live}
            self._building = _new_frame(self.params)
            self._mb_ptr = 0
            self._frame_ptr += 1
        return StepOutcome.COMPLETED


def decode_graph_coarse(
    bitstream: bytes,
    mapping: Optional[Dict[str, str]] = None,
    buffer_packets: int = 3,
    cost: Optional[CostModel] = None,
    name: str = "decode_coarse",
) -> ApplicationGraph:
    """The unrefined decoder: VLD → fused backend → DISP."""
    cost = cost or CostModel()
    sizes = default_buffer_sizes(buffer_packets)
    mapping = mapping or {}
    params, num_frames = read_sequence_header(BitReader(bitstream))
    g = ApplicationGraph(name)

    def node(tname, factory, ports):
        g.add_task(TaskNode(tname, factory, ports, mapping=mapping.get(tname)))

    node("vld", lambda: VldKernel(bitstream, cost), VldKernel.PORTS)
    node(
        "backend",
        lambda: FusedVideoBackendKernel(params, num_frames, cost),
        FusedVideoBackendKernel.PORTS,
    )
    node("disp", lambda: DispKernel(params, num_frames, cost), DispKernel.PORTS)
    g.connect("vld.coef_out", "backend.coef_in", name="coef", buffer_size=sizes["coef"])
    g.connect("vld.mv_out", "backend.mv_in", name="mv", buffer_size=sizes["mv"] * 8)
    g.connect("backend.out", "disp.in", name="recon", buffer_size=sizes["pixels"])
    return g
