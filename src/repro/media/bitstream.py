"""Bit-level stream writer/reader.

MSB-first bit packing, as in MPEG elementary streams.  Includes
unsigned/signed exp-Golomb codes (used for motion-vector differentials
in our simplified syntax).
"""

from __future__ import annotations

__all__ = ["BitWriter", "BitReader", "BitstreamError", "ReadPastEndError"]


class BitstreamError(ValueError):
    """Malformed bitstream or misuse of the reader/writer."""


class ReadPastEndError(BitstreamError):
    """A read needed bits beyond the end of the data: the stream is
    truncated, or (for a streaming parser) more bytes must arrive."""


class BitWriter:
    """Accumulates bits MSB-first into a byte buffer."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._acc = 0
        self._n = 0  # bits in accumulator
        self.bits_written = 0

    def write_bits(self, value: int, n_bits: int) -> None:
        if n_bits < 0 or n_bits > 64:
            raise BitstreamError(f"n_bits must be in [0, 64], got {n_bits}")
        if value < 0 or value >= (1 << n_bits):
            raise BitstreamError(f"value {value} does not fit in {n_bits} bits")
        self._acc = (self._acc << n_bits) | value
        self._n += n_bits
        self.bits_written += n_bits
        while self._n >= 8:
            self._n -= 8
            self._bytes.append((self._acc >> self._n) & 0xFF)
        self._acc &= (1 << self._n) - 1

    def write_bit(self, bit: int) -> None:
        self.write_bits(1 if bit else 0, 1)

    def write_ue(self, value: int) -> None:
        """Unsigned exp-Golomb."""
        if value < 0:
            raise BitstreamError(f"ue() needs value >= 0, got {value}")
        code = value + 1
        n = code.bit_length()
        self.write_bits(0, n - 1)
        self.write_bits(code, n)

    def write_se(self, value: int) -> None:
        """Signed exp-Golomb (0, 1, -1, 2, -2, ...)."""
        self.write_ue(2 * value - 1 if value > 0 else -2 * value)

    def align(self) -> None:
        """Pad with zero bits to the next byte boundary."""
        if self._n:
            self.write_bits(0, 8 - self._n)

    def getvalue(self) -> bytes:
        """Byte-aligned snapshot (pads a copy; the writer stays usable)."""
        out = bytearray(self._bytes)
        if self._n:
            out.append((self._acc << (8 - self._n)) & 0xFF)
        return bytes(out)

    def __len__(self) -> int:
        return len(self._bytes) + (1 if self._n else 0)


class BitReader:
    """Reads bits MSB-first from a byte buffer."""

    def __init__(self, data: bytes):
        self._data = data
        self._nbits = len(data) * 8
        self._pos = 0  # bit position

    @property
    def bit_position(self) -> int:
        return self._pos

    def bits_remaining(self) -> int:
        return self._nbits - self._pos

    def _past_end(self, n_bits: int) -> ReadPastEndError:
        return ReadPastEndError(
            f"read of {n_bits} bits past end (at bit {self._pos} of {self._nbits})"
        )

    def read_bits(self, n_bits: int) -> int:
        if n_bits < 0 or n_bits > 64:
            raise BitstreamError(f"n_bits must be in [0, 64], got {n_bits}")
        pos = self._pos
        end = pos + n_bits
        if end > self._nbits:
            raise self._past_end(n_bits)
        last = (end + 7) >> 3
        value = int.from_bytes(self._data[pos >> 3:last], "big")
        self._pos = end
        return (value >> ((last << 3) - end)) & ((1 << n_bits) - 1)

    def read_bit(self) -> int:
        return self.read_bits(1)

    def read_ue(self) -> int:
        # the prefix's zeros are counted in one peek, and consumed (or
        # failed past the end) as if read bit by bit
        zeros = 33 - self.peek_padded(33).bit_length()
        if zeros > 32:
            self.skip_code(33)
            raise BitstreamError("exp-Golomb prefix too long (corrupt stream)")
        self.skip_code(zeros + 1)
        return ((1 << zeros) | self.read_bits(zeros)) - 1 if zeros else 0

    def read_se(self) -> int:
        ue = self.read_ue()
        return (ue + 1) // 2 if ue % 2 == 1 else -(ue // 2)

    def align(self) -> None:
        self._pos = (self._pos + 7) & ~7

    def peek_bits(self, n_bits: int) -> int:
        pos = self._pos
        try:
            return self.read_bits(n_bits)
        finally:
            self._pos = pos

    def peek_padded(self, n_bits: int) -> int:
        """The next ``n_bits`` without consuming them, zero-padded past
        the end of the data instead of raising: the index into a table
        decoder's peek table."""
        pos = self._pos
        end = pos + n_bits
        last = (end + 7) >> 3
        chunk = self._data[pos >> 3:last]
        value = int.from_bytes(chunk, "big")
        if end > self._nbits:
            value <<= (last - (pos >> 3) - len(chunk)) << 3
        return (value >> ((last << 3) - end)) & ((1 << n_bits) - 1)

    def skip_code(self, n_bits: int) -> None:
        """Consume a table-decoded code of ``n_bits``.

        A code cut off by the end of the data fails as reading it bit by
        bit would: at the first missing bit, with every bit before it
        consumed."""
        end = self._pos + n_bits
        if end > self._nbits:
            # a position already past the end stays put, as it would
            self._pos = max(self._pos, self._nbits)
            raise self._past_end(1)
        self._pos = end
