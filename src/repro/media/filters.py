"""Regular video-filtering kernels (paper §2.2's counterpoint).

"Regular tasks, such as in linear video filtering where worst-case
communication requirements equal the average case, allow a tight
coupling with minimal buffering.  Irregular tasks demand less tight
coupling..."  These kernels are the regular half of that comparison: a
line-based filter chain whose per-step I/O and compute are perfectly
constant, so EXP-A7 can measure how much buffering each class of task
actually needs.

All kernels work on a raster of ``width``-byte luma rows:

* :class:`RowSourceKernel` — emits a frame's rows;
* :class:`HFilterKernel` — 3-tap horizontal FIR per row (stateless);
* :class:`VFilterKernel` — 3-tap vertical FIR (two-row state, still
  constant I/O per step);
* :class:`DownscaleKernel` — 2:1 horizontal decimation;
* :class:`RowSinkKernel` — collects rows back into a frame.

`reference_*` functions give the numpy golden output for equivalence
checks.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.kahn.graph import ApplicationGraph, Direction, PortSpec, TaskNode
from repro.kahn.kernel import Kernel, KernelContext, StepOutcome

__all__ = [
    "RowSourceKernel",
    "HFilterKernel",
    "VFilterKernel",
    "DownscaleKernel",
    "RowSinkKernel",
    "MbToRasterKernel",
    "filter_chain_graph",
    "reference_hfilter",
    "reference_vfilter",
    "reference_downscale",
    "reference_chain",
]


def _filter3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The shared 3-tap kernel: (a + 2b + c + 2) // 4, saturating u8."""
    acc = a.astype(np.int32) + 2 * b.astype(np.int32) + c.astype(np.int32)
    return ((acc + 2) // 4).clip(0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# golden reference (pure numpy)
# ---------------------------------------------------------------------------
def reference_hfilter(image: np.ndarray) -> np.ndarray:
    left = np.concatenate([image[:, :1], image[:, :-1]], axis=1)
    right = np.concatenate([image[:, 1:], image[:, -1:]], axis=1)
    return _filter3(left, image, right)


def reference_vfilter(image: np.ndarray) -> np.ndarray:
    up = np.concatenate([image[:1], image[:-1]], axis=0)
    down = np.concatenate([image[1:], image[-1:]], axis=0)
    return _filter3(up, image, down)


def reference_downscale(image: np.ndarray) -> np.ndarray:
    pairs = image.reshape(image.shape[0], -1, 2).astype(np.uint16)
    return ((pairs.sum(axis=2) + 1) // 2).astype(np.uint8)


def reference_chain(image: np.ndarray) -> np.ndarray:
    return reference_downscale(reference_vfilter(reference_hfilter(image)))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------
class RowSourceKernel(Kernel):
    """Emit a frame row by row — perfectly regular output."""

    PORTS = (PortSpec("out", Direction.OUT),)

    def __init__(self, image: np.ndarray, compute_cycles: int = 8):
        super().__init__()
        self.image = np.ascontiguousarray(image, dtype=np.uint8)
        self.compute_cycles = compute_cycles
        self._row = 0

    def step(self, ctx: KernelContext):
        if self._row >= self.image.shape[0]:
            return StepOutcome.FINISHED
        row = self.image[self._row].tobytes()
        sp = yield ctx.get_space("out", len(row))
        if not sp:
            return StepOutcome.ABORTED
        yield ctx.compute(self.compute_cycles)
        yield ctx.write("out", 0, row)
        yield ctx.put_space("out", len(row))
        self._row += 1
        return StepOutcome.COMPLETED


class HFilterKernel(Kernel):
    """3-tap horizontal FIR: one row in, one row out, zero state."""

    PORTS = (PortSpec("in", Direction.IN), PortSpec("out", Direction.OUT))

    def __init__(self, width: int, cycles_per_row: Optional[int] = None):
        super().__init__()
        if width < 2:
            raise ValueError("width must be >= 2")
        self.width = width
        self.cycles_per_row = cycles_per_row if cycles_per_row is not None else width // 2

    def step(self, ctx: KernelContext):
        w = self.width
        sp = yield ctx.get_space("in", w)
        if not sp:
            return StepOutcome.FINISHED if sp.eos else StepOutcome.ABORTED
        sp_out = yield ctx.get_space("out", w)
        if not sp_out:
            return StepOutcome.ABORTED
        data = yield ctx.read("in", 0, w)
        row = np.frombuffer(data, dtype=np.uint8).reshape(1, w)
        out = reference_hfilter(row).tobytes()
        yield ctx.compute(self.cycles_per_row)
        yield ctx.write("out", 0, out)
        yield ctx.put_space("in", w)
        yield ctx.put_space("out", w)
        return StepOutcome.COMPLETED


class VFilterKernel(Kernel):
    """3-tap vertical FIR with edge clamping.

    Keeps the previous two rows as task state; emits row r's output
    once row r+1 has arrived (plus a final flush row at end of stream).
    I/O stays one-row-in/one-row-out per step after the one-row
    pipeline fill — still a regular task.
    """

    PORTS = (PortSpec("in", Direction.IN), PortSpec("out", Direction.OUT))

    def __init__(self, width: int, cycles_per_row: Optional[int] = None):
        super().__init__()
        self.width = width
        self.cycles_per_row = cycles_per_row if cycles_per_row is not None else width // 2
        self._prev: Optional[np.ndarray] = None  # row r-1
        self._cur: Optional[np.ndarray] = None  # row r
        self._flushed = False

    def _emit(self, ctx, above, mid, below):
        out = _filter3(above, mid, below).tobytes()
        yield ctx.write("out", 0, out)
        yield ctx.put_space("out", self.width)

    def step(self, ctx: KernelContext):
        w = self.width
        sp = yield ctx.get_space("in", w)
        if not sp:
            if sp.eos:
                if self._cur is not None and not self._flushed:
                    # final row: clamp below edge
                    sp_out = yield ctx.get_space("out", w)
                    if not sp_out:
                        return StepOutcome.ABORTED
                    above = self._prev if self._prev is not None else self._cur
                    yield from self._emit(ctx, above, self._cur, self._cur)
                    self._flushed = True
                return StepOutcome.FINISHED
            return StepOutcome.ABORTED
        if self._cur is not None:
            sp_out = yield ctx.get_space("out", w)
            if not sp_out:
                return StepOutcome.ABORTED
        data = yield ctx.read("in", 0, w)
        new = np.frombuffer(data, dtype=np.uint8)
        yield ctx.compute(self.cycles_per_row)
        if self._cur is not None:
            above = self._prev if self._prev is not None else self._cur
            yield from self._emit(ctx, above, self._cur, new)
        yield ctx.put_space("in", w)
        self._prev, self._cur = self._cur, new
        return StepOutcome.COMPLETED


class DownscaleKernel(Kernel):
    """2:1 horizontal decimation: in-row W, out-row W/2 — constant."""

    PORTS = (PortSpec("in", Direction.IN), PortSpec("out", Direction.OUT))

    def __init__(self, width: int, cycles_per_row: Optional[int] = None):
        super().__init__()
        if width % 2:
            raise ValueError("width must be even")
        self.width = width
        self.cycles_per_row = cycles_per_row if cycles_per_row is not None else width // 4

    def step(self, ctx: KernelContext):
        w = self.width
        sp = yield ctx.get_space("in", w)
        if not sp:
            return StepOutcome.FINISHED if sp.eos else StepOutcome.ABORTED
        sp_out = yield ctx.get_space("out", w // 2)
        if not sp_out:
            return StepOutcome.ABORTED
        data = yield ctx.read("in", 0, w)
        row = np.frombuffer(data, dtype=np.uint8).reshape(1, w)
        out = reference_downscale(row).tobytes()
        yield ctx.compute(self.cycles_per_row)
        yield ctx.write("out", 0, out)
        yield ctx.put_space("in", w)
        yield ctx.put_space("out", w // 2)
        return StepOutcome.COMPLETED


class RowSinkKernel(Kernel):
    """Collect rows into :attr:`rows`; :meth:`image` rebuilds the frame."""

    PORTS = (PortSpec("in", Direction.IN),)
    STATE_FIELDS = ("rows",)

    def __init__(self, width: int, compute_cycles: int = 4):
        super().__init__()
        self.width = width
        self.compute_cycles = compute_cycles
        self.rows: List[bytes] = []

    def image(self) -> np.ndarray:
        return np.frombuffer(b"".join(self.rows), dtype=np.uint8).reshape(-1, self.width)

    def step(self, ctx: KernelContext):
        w = self.width
        sp = yield ctx.get_space("in", w)
        if not sp:
            return StepOutcome.FINISHED if sp.eos else StepOutcome.ABORTED
        data = yield ctx.read("in", 0, w)
        yield ctx.compute(self.compute_cycles)
        yield ctx.put_space("in", w)
        self.rows.append(data)
        return StepOutcome.COMPLETED


# ---------------------------------------------------------------------------
# graph builder
# ---------------------------------------------------------------------------
def filter_chain_graph(
    image: np.ndarray,
    buffer_rows: int = 2,
    mapping: Optional[dict] = None,
) -> ApplicationGraph:
    """source -> hfilter -> vfilter -> downscale -> sink over rows.

    ``buffer_rows`` sizes every stream in rows — the §2.2 coupling
    knob: regular chains should run well even at ``buffer_rows=1``.
    """
    h, w = image.shape
    mapping = mapping or {}
    g = ApplicationGraph("filter_chain")

    def node(name, factory, ports):
        g.add_task(TaskNode(name, factory, ports, mapping=mapping.get(name)))

    node("src", lambda: RowSourceKernel(image), RowSourceKernel.PORTS)
    node("hf", lambda: HFilterKernel(w), HFilterKernel.PORTS)
    node("vf", lambda: VFilterKernel(w), VFilterKernel.PORTS)
    node("ds", lambda: DownscaleKernel(w), DownscaleKernel.PORTS)
    node("sink", lambda: RowSinkKernel(w // 2), RowSinkKernel.PORTS)
    g.connect("src.out", "hf.in", buffer_size=buffer_rows * w)
    g.connect("hf.out", "vf.in", buffer_size=buffer_rows * w)
    g.connect("vf.out", "ds.in", buffer_size=buffer_rows * w)
    g.connect("ds.out", "sink.in", buffer_size=max(1, buffer_rows * w // 2))
    return g


class MbToRasterKernel(Kernel):
    """Format converter: macroblock pixel packets -> luma raster rows.

    The glue between the block-oriented decode pipeline and the
    line-oriented display processing (scalers/filters) — a standard
    element of display subsystems (cf. paper ref [7], Jaspers & de
    With).  Buffers one 16-line macroblock row; once the row of
    macroblocks is complete, emits its 16 luma lines and recycles the
    buffer.  Finishes by count (frames x lines).
    """

    PORTS = (PortSpec("in", Direction.IN), PortSpec("out", Direction.OUT))

    def __init__(self, width: int, height: int, num_frames: int, compute_cycles: int = 8):
        super().__init__()
        if width % 16 or height % 16:
            raise ValueError("dimensions must be multiples of 16")
        self.width = width
        self.height = height
        self.num_frames = num_frames
        self.compute_cycles = compute_cycles
        self.mb_cols = width // 16
        self._strip = np.zeros((16, width), dtype=np.uint8)
        self._mb_in_row = 0
        self._emitted_frames = 0
        self._pending_rows = 0  # rows of the completed strip not yet sent

    def step(self, ctx: KernelContext):
        from repro.media.packets import HEADER_SIZE, unpack_pixels
        from repro.media.tasks import read_packet

        if self._pending_rows:
            row_idx = 16 - self._pending_rows
            row = self._strip[row_idx].tobytes()
            sp = yield ctx.get_space("out", self.width)
            if not sp:
                return StepOutcome.ABORTED
            yield ctx.compute(self.compute_cycles)
            yield ctx.write("out", 0, row)
            yield ctx.put_space("out", self.width)
            self._pending_rows -= 1
            return StepOutcome.COMPLETED

        if self._emitted_frames >= self.num_frames and self._mb_in_row == 0:
            return StepOutcome.FINISHED
        status, hdr, payload = yield from read_packet(ctx, "in")
        if status == "eos":
            return StepOutcome.FINISHED
        if status == "abort":
            return StepOutcome.ABORTED
        yield ctx.compute(self.compute_cycles)
        yield ctx.put_space("in", HEADER_SIZE + hdr.payload_len)
        # ---- commit state: place the 4 luma blocks into the strip ----
        blocks = unpack_pixels(payload)
        mb_x = hdr.mb_index % self.mb_cols
        self._strip[0:8, mb_x * 16 : mb_x * 16 + 8] = blocks[0]
        self._strip[0:8, mb_x * 16 + 8 : mb_x * 16 + 16] = blocks[1]
        self._strip[8:16, mb_x * 16 : mb_x * 16 + 8] = blocks[2]
        self._strip[8:16, mb_x * 16 + 8 : mb_x * 16 + 16] = blocks[3]
        self._mb_in_row += 1
        if self._mb_in_row == self.mb_cols:
            self._mb_in_row = 0
            self._pending_rows = 16
            if hdr.mb_index == (self.height // 16) * self.mb_cols - 1:
                self._emitted_frames += 1
        return StepOutcome.COMPLETED
