"""Audio substrate: PCM source and an IMA-ADPCM codec.

Paper §6: "Audio decoding, variable-length encoding, and
de-multiplexing are executed in software on the media processor
(DSP-CPU)."  This module provides the audio half of that story: a
deterministic PCM test source and a block-based IMA-ADPCM codec
(integer state machine, bit-exact by construction), plus the Eclipse
task kernels that decode it as a *software* task.

IMA-ADPCM is the classic 4-bit differential codec: a step-size table
indexed adaptively, one nibble per sample, 4:1 compression on 16-bit
PCM.  Blocks are independently decodable: each starts with the
predictor and step index, so the stream is packetizable per block —
matching Eclipse's packet-oriented processing.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.kahn.graph import Direction, PortSpec
from repro.kahn.kernel import Kernel, KernelContext, StepOutcome

__all__ = [
    "STEP_TABLE",
    "INDEX_TABLE",
    "synthetic_pcm",
    "adpcm_encode_block",
    "adpcm_decode_block",
    "adpcm_encode",
    "adpcm_decode",
    "BLOCK_SAMPLES",
    "BLOCK_BYTES",
    "AdpcmDecoderKernel",
    "PcmSinkKernel",
]

#: samples per ADPCM block (even; two samples per byte)
BLOCK_SAMPLES = 256
#: encoded block: 2 B predictor + 1 B index + 1 B pad + nibbles
BLOCK_BYTES = 4 + BLOCK_SAMPLES // 2

#: the standard IMA step-size table (89 entries)
STEP_TABLE = [
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37,
    41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173,
    190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658,
    724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
    2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894,
    6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289,
    16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
]

#: index adjustment per 4-bit code
INDEX_TABLE = [-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8]


def synthetic_pcm(num_samples: int, seed: int = 11, rate: int = 48_000) -> np.ndarray:
    """Deterministic int16 mono test signal: tones + noise."""
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    rng = np.random.default_rng(seed)
    t = np.arange(num_samples) / rate
    signal = (
        6000 * np.sin(2 * np.pi * 440.0 * t)
        + 3000 * np.sin(2 * np.pi * 1320.0 * t + 0.5)
        + 1200 * np.sin(2 * np.pi * 3700.0 * t)
        + rng.normal(0, 120, num_samples)
    )
    return np.clip(signal, -32768, 32767).astype(np.int16)


def _encode_sample(sample: int, predictor: int, index: int) -> Tuple[int, int, int]:
    """One IMA-ADPCM encode step: returns (code, predictor', index')."""
    step = STEP_TABLE[index]
    diff = sample - predictor
    code = 0
    if diff < 0:
        code = 8
        diff = -diff
    if diff >= step:
        code |= 4
        diff -= step
    if diff >= step >> 1:
        code |= 2
        diff -= step >> 1
    if diff >= step >> 2:
        code |= 1
    _, predictor = _decode_sample(code, predictor, index)
    index = max(0, min(88, index + INDEX_TABLE[code]))
    return code, predictor, index


def _decode_sample(code: int, predictor: int, index: int) -> Tuple[int, int]:
    """One IMA-ADPCM decode step: returns (sample, predictor')."""
    step = STEP_TABLE[index]
    diff = step >> 3
    if code & 4:
        diff += step
    if code & 2:
        diff += step >> 1
    if code & 1:
        diff += step >> 2
    if code & 8:
        predictor -= diff
    else:
        predictor += diff
    predictor = max(-32768, min(32767, predictor))  # IMA clamps the state
    return predictor, predictor


def adpcm_encode_block(samples: np.ndarray) -> bytes:
    """Encode exactly BLOCK_SAMPLES int16 samples to one block."""
    if samples.shape != (BLOCK_SAMPLES,):
        raise ValueError(f"expected {BLOCK_SAMPLES} samples, got {samples.shape}")
    predictor = int(samples[0])
    index = 0
    out = bytearray(struct.pack("<hBx", predictor, index))
    nibble: Optional[int] = None
    for s in samples:
        code, predictor, index = _encode_sample(int(s), predictor, index)
        if nibble is None:
            nibble = code
        else:
            out.append(nibble | (code << 4))
            nibble = None
    assert nibble is None  # BLOCK_SAMPLES is even
    return bytes(out)


def adpcm_decode_block(block: bytes) -> np.ndarray:
    """Decode one block back to BLOCK_SAMPLES int16 samples."""
    if len(block) != BLOCK_BYTES:
        raise ValueError(f"expected {BLOCK_BYTES} B block, got {len(block)}")
    predictor, index = struct.unpack_from("<hBx", block)
    index = max(0, min(88, index))
    out = np.empty(BLOCK_SAMPLES, dtype=np.int16)
    pos = 0
    for byte in block[4:]:
        for code in (byte & 0xF, byte >> 4):
            sample, predictor = _decode_sample(code, predictor, index)
            index = max(0, min(88, index + INDEX_TABLE[code]))
            out[pos] = sample
            pos += 1
    return out


def adpcm_encode(pcm: np.ndarray) -> bytes:
    """Encode PCM (padded with zeros to a whole number of blocks)."""
    n_blocks = -(-len(pcm) // BLOCK_SAMPLES)
    padded = np.zeros(n_blocks * BLOCK_SAMPLES, dtype=np.int16)
    padded[: len(pcm)] = pcm
    return b"".join(
        adpcm_encode_block(padded[i * BLOCK_SAMPLES : (i + 1) * BLOCK_SAMPLES])
        for i in range(n_blocks)
    )


def adpcm_decode(data: bytes) -> np.ndarray:
    if len(data) % BLOCK_BYTES:
        raise ValueError(f"stream length {len(data)} is not a whole number of blocks")
    blocks = [
        adpcm_decode_block(data[i : i + BLOCK_BYTES])
        for i in range(0, len(data), BLOCK_BYTES)
    ]
    return np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int16)


# ---------------------------------------------------------------------------
# Eclipse task kernels (software tasks for the DSP-CPU)
# ---------------------------------------------------------------------------
class AdpcmDecoderKernel(Kernel):
    """Software audio decoder: ADPCM blocks in, PCM blocks out.

    One block per processing step; the cycle cost models a software
    inner loop (a few cycles per sample on the DSP).

    Behind a lossy ingest, the ``damaged_blocks`` (block indices that
    overlap an erasure) come out as silence: a zeroed, or worse
    half-zeroed, block would decode into a click or noise burst, and
    silence is the audible equivalent of frame-copy concealment.
    ``degradation_stats()`` reports them when a block was silenced or
    ``report_always`` is set."""

    PORTS = (PortSpec("in", Direction.IN), PortSpec("out", Direction.OUT))

    def __init__(
        self,
        cycles_per_sample: int = 3,
        damaged_blocks: Iterable[int] = (),
        report_always: bool = False,
    ):
        super().__init__()
        self.cycles_per_sample = cycles_per_sample
        self._damaged = frozenset(damaged_blocks)
        self._report_always = report_always
        self.blocks_total = 0
        self.blocks_silenced = 0

    def step(self, ctx: KernelContext):
        sp = yield ctx.get_space("in", BLOCK_BYTES)
        if not sp:
            return StepOutcome.FINISHED if sp.eos else StepOutcome.ABORTED
        out_bytes = BLOCK_SAMPLES * 2
        sp_out = yield ctx.get_space("out", out_bytes)
        if not sp_out:
            return StepOutcome.ABORTED
        block = yield ctx.read("in", 0, BLOCK_BYTES)
        silenced = self.blocks_total in self._damaged
        pcm = b"\x00" * out_bytes if silenced else adpcm_decode_block(block).tobytes()
        yield ctx.compute(self.cycles_per_sample * BLOCK_SAMPLES)
        yield ctx.write("out", 0, pcm)
        yield ctx.put_space("in", BLOCK_BYTES)
        yield ctx.put_space("out", out_bytes)
        # commit
        self.blocks_total += 1
        if silenced:
            self.blocks_silenced += 1
        return StepOutcome.COMPLETED

    def degradation_stats(self) -> Optional[Dict]:
        if not self._report_always and not self.blocks_silenced:
            return None
        return {
            "kind": "audio",
            "blocks_total": self.blocks_total,
            "blocks_decoded": self.blocks_total - self.blocks_silenced,
            "blocks_silenced": self.blocks_silenced,
        }


class PcmSinkKernel(Kernel):
    """Collects decoded PCM (and models the audio-out DMA)."""

    PORTS = (PortSpec("in", Direction.IN),)
    STATE_FIELDS = ("_data",)

    CHUNK = BLOCK_SAMPLES * 2

    def __init__(self, compute_cycles: int = 16):
        super().__init__()
        self.compute_cycles = compute_cycles
        self._data = bytearray()

    def pcm(self) -> np.ndarray:
        return np.frombuffer(bytes(self._data), dtype=np.int16)

    def step(self, ctx: KernelContext):
        sp = yield ctx.get_space("in", self.CHUNK)
        if not sp:
            if sp.eos:
                n = sp.available
                if n:
                    yield ctx.get_space("in", n)
                    data = yield ctx.read("in", 0, n)
                    yield ctx.put_space("in", n)
                    self._data.extend(data)
                return StepOutcome.FINISHED
            return StepOutcome.ABORTED
        data = yield ctx.read("in", 0, self.CHUNK)
        yield ctx.compute(self.compute_cycles)
        yield ctx.external_access(self.CHUNK, is_write=True, posted=True)
        yield ctx.put_space("in", self.CHUNK)
        self._data.extend(data)
        return StepOutcome.COMPLETED
