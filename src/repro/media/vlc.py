"""Variable-length coding: canonical Huffman for (run, level) pairs.

Modelled on MPEG-2's DCT-coefficient tables: common (run, |level|)
pairs get short codes from a static table; everything else uses an
escape code with fixed-length run and level fields; EOB terminates a
block.  The table is generated deterministically at import time from a
two-sided geometric frequency model — not MPEG-2's exact table, but
with the same structure and a similar length distribution, so VLD/VLE
cycle counts scale with content the same way.

Decoding is by table lookup: the next ``max_length + 1`` bits index a
table whose every slot holds the one coefficient code (with a tabled
pair's sign bit) that prefixes them (a Huffman code is complete, so no
slot is empty).  The reader's position and errors are those of reading
the code bit by bit (:meth:`BitReader.skip_code`).
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from repro.media.bitstream import BitReader, BitWriter, BitstreamError
from repro.media.quant import LEVEL_MAX

__all__ = ["VlcTable", "COEFF_TABLE", "encode_block_pairs", "decode_block_pairs"]

#: (run, |level|) pairs that get dedicated Huffman codes.
_TABLED_RUN = 16
_TABLED_LEVEL = 8

#: escape code field widths
_ESC_RUN_BITS = 6
_ESC_LEVEL_BITS = 12  # signed magnitude fits LEVEL_MAX


class VlcTable:
    """A canonical Huffman code over symbols 0..n-1 plus helpers.

    Symbols: ``0`` = EOB, ``1`` = ESC, then tabled (run, |level|) pairs
    in row-major order.  Codes are canonical (sorted by length, then
    symbol), so the table is fully defined by its code lengths.
    """

    EOB = 0
    ESC = 1

    def __init__(self, frequencies: List[float]):
        if len(frequencies) < 2:
            raise ValueError("need at least two symbols")
        lengths = _huffman_lengths(frequencies)
        self.codes: List[Tuple[int, int]] = _canonical_codes(lengths)  # (code, length)
        self.max_length = max(length for _c, length in self.codes)

    @staticmethod
    def pair_symbol(run: int, magnitude: int) -> int:
        """Symbol index of a tabled (run, |level|) pair."""
        return 2 + run * _TABLED_LEVEL + (magnitude - 1)

    @staticmethod
    def is_tabled(run: int, level: int) -> bool:
        return 0 <= run < _TABLED_RUN and 1 <= abs(level) <= _TABLED_LEVEL

    def write_symbol(self, w: BitWriter, symbol: int) -> None:
        code, length = self.codes[symbol]
        w.write_bits(code, length)


def _huffman_lengths(frequencies: List[float]) -> List[int]:
    """Code lengths from frequencies via the standard Huffman heap."""
    n = len(frequencies)
    heap = [(freq, i, (i,)) for i, freq in enumerate(frequencies)]
    heapq.heapify(heap)
    lengths = [0] * n
    next_id = n
    while len(heap) > 1:
        f1, _i1, syms1 = heapq.heappop(heap)
        f2, _i2, syms2 = heapq.heappop(heap)
        merged = syms1 + syms2
        for s in merged:
            lengths[s] += 1
        heapq.heappush(heap, (f1 + f2, next_id, merged))
        next_id += 1
    return lengths


def _canonical_codes(lengths: List[int]) -> List[Tuple[int, int]]:
    """Canonical code assignment: by (length, symbol)."""
    order = sorted(range(len(lengths)), key=lambda s: (lengths[s], s))
    codes: List[Tuple[int, int]] = [(0, 0)] * len(lengths)
    code = 0
    prev_len = 0
    for sym in order:
        length = lengths[sym]
        code <<= length - prev_len
        codes[sym] = (code, length)
        code += 1
        prev_len = length
    return codes


def _peek_table(width: int, coded: List[Tuple[object, int, int]]) -> List[object]:
    """A ``2**width``-entry table from ``(entry, code, length)`` rows of
    a complete prefix code: every slot whose index starts with a code
    holds that code's entry.  Slots share the entry object, so the
    table costs one pointer per slot."""
    table: List[object] = [None] * (1 << width)
    for entry, code, length in coded:
        span = 1 << (width - length)
        table[code * span:(code + 1) * span] = [entry] * span
    return table


def _default_frequencies() -> List[float]:
    """Two-sided geometric model: short runs and small levels dominate
    (the empirical shape of DCT coefficient statistics)."""
    freqs = [1.0, 0.02]  # EOB very frequent (once per block), ESC rare
    for run in range(_TABLED_RUN):
        for mag in range(1, _TABLED_LEVEL + 1):
            freqs.append(0.9 ** run * 0.55 ** mag)
    return freqs


#: The coefficient table shared by the encoder (VLE) and decoder (VLD).
COEFF_TABLE = VlcTable(_default_frequencies())


def encode_block_pairs(w: BitWriter, pairs: List[Tuple[int, int]]) -> int:
    """Write one block's run-level pairs + EOB; returns bits written."""
    start = w.bits_written
    for run, level in pairs:
        if level == 0 or run < 0:
            raise ValueError(f"bad pair ({run}, {level})")
        if abs(level) > LEVEL_MAX or run >= (1 << _ESC_RUN_BITS):
            raise ValueError(f"pair ({run}, {level}) exceeds escape range")
        if COEFF_TABLE.is_tabled(run, level):
            COEFF_TABLE.write_symbol(w, VlcTable.pair_symbol(run, abs(level)))
            w.write_bit(1 if level < 0 else 0)
        else:
            COEFF_TABLE.write_symbol(w, VlcTable.ESC)
            w.write_bits(run, _ESC_RUN_BITS)
            w.write_bit(1 if level < 0 else 0)
            w.write_bits(abs(level), _ESC_LEVEL_BITS)
    COEFF_TABLE.write_symbol(w, VlcTable.EOB)
    return w.bits_written - start


#: the ESC entry's marker in the pair peek table
_ESCAPE = object()


def _pair_peek_table(table: VlcTable) -> List[object]:
    """Peek table for one coefficient, ``max_length + 1`` bits wide.

    A tabled pair's code and sign bit decode to ``(bits, (run, level))``.
    EOB decodes to ``(bits, None)`` and ESC to ``(bits, _ESCAPE)`` with
    the code alone: EOB ends the block, and ESC's fields follow as plain
    reads, which fail past the end as they always did."""
    coded: List[Tuple[object, int, int]] = []
    for sym, (code, length) in enumerate(table.codes):
        if sym == VlcTable.EOB:
            coded.append(((length, None), code, length))
        elif sym == VlcTable.ESC:
            coded.append(((length, _ESCAPE), code, length))
        else:
            run, mag = divmod(sym - 2, _TABLED_LEVEL)
            coded.append(((length + 1, (run, mag + 1)), code << 1, length + 1))
            coded.append(((length + 1, (run, -mag - 1)), (code << 1) | 1, length + 1))
    return _peek_table(table.max_length + 1, coded)


#: ``COEFF_TABLE``'s coefficient peek table
_PAIR_PEEK_BITS = COEFF_TABLE.max_length + 1
_PAIR_PEEK = _pair_peek_table(COEFF_TABLE)


def decode_block_pairs(r: BitReader) -> List[Tuple[int, int]]:
    """Read run-level pairs up to and including EOB."""
    pairs: List[Tuple[int, int]] = []
    peek, skip = r.peek_padded, r.skip_code
    while True:
        bits, pair = _PAIR_PEEK[peek(_PAIR_PEEK_BITS)]
        skip(bits)
        if pair is None:  # EOB
            return pairs
        if pair is _ESCAPE:
            run = r.read_bits(_ESC_RUN_BITS)
            sign = r.read_bit()
            mag = r.read_bits(_ESC_LEVEL_BITS)
            if mag == 0:
                raise BitstreamError("escape with zero level")
            pair = (run, -mag if sign else mag)
        pairs.append(pair)
        if len(pairs) > 64:
            raise BitstreamError("more than 64 coefficients in a block")
