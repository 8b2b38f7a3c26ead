"""Unit and property tests for the canonical-Huffman VLC."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.media.bitstream import BitReader, BitstreamError, BitWriter, ReadPastEndError
from repro.media.vlc import COEFF_TABLE, VlcTable, decode_block_pairs, encode_block_pairs


def test_codes_are_prefix_free():
    codes = [(length, code) for code, length in COEFF_TABLE.codes]
    for i, (l1, c1) in enumerate(codes):
        for j, (l2, c2) in enumerate(codes):
            if i == j:
                continue
            if l1 <= l2:
                assert (c2 >> (l2 - l1)) != c1, f"code {i} is a prefix of {j}"


def test_kraft_equality():
    """A full Huffman code satisfies Kraft with equality."""
    total = sum(2.0 ** -length for _c, length in COEFF_TABLE.codes)
    assert total == pytest.approx(1.0)


def test_common_pairs_get_short_codes():
    short = COEFF_TABLE.codes[VlcTable.pair_symbol(0, 1)][1]
    long = COEFF_TABLE.codes[VlcTable.pair_symbol(15, 8)][1]
    assert short < long
    eob_len = COEFF_TABLE.codes[VlcTable.EOB][1]
    assert eob_len <= 6  # EOB is frequent, must be short


def test_symbol_roundtrip_all():
    """Every tabled (run, +-level) pair, an escape pair and EOB, in
    blocks of at most 64 pairs."""
    tabled = [(run, level) for run in range(64) for level in range(-64, 65)
              if VlcTable.is_tabled(run, level)]
    assert len(tabled) == 2 * (len(COEFF_TABLE.codes) - 2)
    blocks = [tabled[i:i + 64] for i in range(0, len(tabled), 64)] + [[(20, 500)], []]
    w = BitWriter()
    for block in blocks:
        encode_block_pairs(w, block)
    r = BitReader(w.getvalue())
    assert [decode_block_pairs(r) for _ in blocks] == blocks
    assert r.bit_position == w.bits_written


def test_block_pairs_roundtrip_tabled_and_escape():
    pairs = [(0, 1), (2, -3), (20, 5), (0, 500), (15, -8), (1, 9)]
    w = BitWriter()
    bits = encode_block_pairs(w, pairs)
    assert bits > 0
    r = BitReader(w.getvalue())
    assert decode_block_pairs(r) == pairs


def test_empty_block_is_just_eob():
    w = BitWriter()
    encode_block_pairs(w, [])
    r = BitReader(w.getvalue())
    assert decode_block_pairs(r) == []


def test_encode_rejects_bad_pairs():
    w = BitWriter()
    with pytest.raises(ValueError):
        encode_block_pairs(w, [(0, 0)])
    with pytest.raises(ValueError):
        encode_block_pairs(w, [(64, 1)])
    with pytest.raises(ValueError):
        encode_block_pairs(w, [(0, 5000)])


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=63),
            st.integers(min_value=-2047, max_value=2047).filter(lambda v: v != 0),
        ),
        max_size=64,
    )
)
def test_block_pairs_roundtrip_property(pairs):
    # keep the total run+1 per pair within a 64-coefficient block
    budget = 64
    valid = []
    for run, level in pairs:
        if budget - (run + 1) < 0:
            break
        budget -= run + 1
        valid.append((run, level))
    w = BitWriter()
    encode_block_pairs(w, valid)
    r = BitReader(w.getvalue())
    assert decode_block_pairs(r) == valid


def test_data_dependent_bit_counts():
    """More/larger coefficients -> more bits: the irregularity VLD/VLE
    cycle models build on."""
    w1, w2 = BitWriter(), BitWriter()
    few = encode_block_pairs(w1, [(0, 1)])
    many = encode_block_pairs(w2, [(i % 4, (-1) ** i * (i % 7 + 1)) for i in range(12)])
    assert many > 3 * few


# ---------------------------------------------------------------------------
# table decoding vs the bit-serial decoder it replaced
# ---------------------------------------------------------------------------
class _SerialReader:
    """The bit-serial reference: one bit per loop iteration, and for a
    VLC a ``(length, code)`` lookup after each bit.  Only its past-end
    error class is new; the text is the one it always had."""

    _DECODE = {(length, code): sym for sym, (code, length) in enumerate(COEFF_TABLE.codes)}

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    @property
    def bit_position(self):
        return self._pos

    def read_bits(self, n_bits):
        if n_bits < 0 or n_bits > 64:
            raise BitstreamError(f"n_bits must be in [0, 64], got {n_bits}")
        if self._pos + n_bits > len(self._data) * 8:
            raise ReadPastEndError(
                f"read of {n_bits} bits past end (at bit {self._pos} of "
                f"{len(self._data) * 8})"
            )
        value = 0
        pos = self._pos
        remaining = n_bits
        while remaining:
            byte = self._data[pos >> 3]
            bit_off = pos & 7
            take = min(remaining, 8 - bit_off)
            chunk = (byte >> (8 - bit_off - take)) & ((1 << take) - 1)
            value = (value << take) | chunk
            pos += take
            remaining -= take
        self._pos = pos
        return value

    def read_ue(self):
        zeros = 0
        while self.read_bits(1) == 0:
            zeros += 1
            if zeros > 32:
                raise BitstreamError("exp-Golomb prefix too long (corrupt stream)")
        return ((1 << zeros) | self.read_bits(zeros)) - 1 if zeros else 0

    def read_symbol(self):
        code = 0
        for length in range(1, COEFF_TABLE.max_length + 1):
            code = (code << 1) | self.read_bits(1)
            sym = self._DECODE.get((length, code))
            if sym is not None:
                return sym
        raise BitstreamError("invalid VLC code (corrupt stream)")

    def decode_block_pairs(self):
        pairs = []
        while True:
            sym = self.read_symbol()
            if sym == VlcTable.EOB:
                return pairs
            if sym == VlcTable.ESC:
                run = self.read_bits(6)
                sign = self.read_bits(1)
                mag = self.read_bits(12)
                if mag == 0:
                    raise BitstreamError("escape with zero level")
                pairs.append((run, -mag if sign else mag))
            else:
                run, mag = divmod(sym - 2, 8)
                mag += 1
                sign = self.read_bits(1)
                pairs.append((run, -mag if sign else mag))
            if len(pairs) > 64:
                raise BitstreamError("more than 64 coefficients in a block")


#: one read, as ``(table path on a BitReader, reference on a _SerialReader)``
_READS = {
    "bits": (BitReader.read_bits, _SerialReader.read_bits),
    "ue": (lambda r, _n: r.read_ue(), lambda r, _n: r.read_ue()),
    "pairs": (lambda r, _n: decode_block_pairs(r), lambda r, _n: r.decode_block_pairs()),
}


def _trace(read, reader, start, n_bits, repeats=6):
    """Each value and bit position of up to ``repeats`` reads from bit
    ``start``, then the error (class and text), then the position."""
    reader._pos = start
    out = []
    try:
        for _ in range(repeats):
            out.append(read(reader, n_bits))
            out.append(reader.bit_position)
    except BitstreamError as exc:
        out.append((type(exc).__name__, str(exc)))
    out.append(reader.bit_position)
    return out


def _assert_same_reads(data: bytes, start: int, op: str, n_bits: int = 0):
    table_read, serial_read = _READS[op]
    assert _trace(table_read, BitReader(data), start, n_bits) == _trace(
        serial_read, _SerialReader(data), start, n_bits
    )


@settings(max_examples=400, deadline=None)
@given(
    st.binary(max_size=24),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from(sorted(_READS)),
    st.integers(min_value=0, max_value=64),
)
def test_table_decode_matches_bit_serial_on_random_bytes(data, where, op, n_bits):
    _assert_same_reads(data, int(where * len(data) * 8), op, n_bits)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),
            st.sampled_from([1, -1, 2, -2, 3, -5, 8, -8, 9, -40, 2047, -2047]),
        ),
        max_size=10,
    ),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=5000),
)
def test_table_decode_matches_bit_serial_on_every_truncation(pairs, lead, ue):
    """An exp-Golomb value and two encoded blocks, cut after every bit
    (the rest of the last byte zeroed: the reader takes whole bytes)."""
    w = BitWriter()
    w.write_bits(0, lead)  # vary the alignment
    w.write_ue(ue)
    blocks = w.bits_written
    encode_block_pairs(w, pairs)
    encode_block_pairs(w, pairs[:2])
    encoded = w.getvalue()
    for cut in range(w.bits_written + 1):
        head = bytearray(encoded[: (cut + 7) // 8])
        if cut % 8:
            head[-1] &= (0xFF << (8 - cut % 8)) & 0xFF
        _assert_same_reads(bytes(head), lead, "ue")
        _assert_same_reads(bytes(head), blocks, "pairs")


def test_long_exp_golomb_prefix_matches_bit_serial():
    """33 zeros are a corrupt prefix; fewer before the end are a read
    past the end."""
    for zero_bytes in range(3, 7):
        for start in (0, 1, 7):
            _assert_same_reads(bytes(zero_bytes) + b"\xff", start, "ue")
            _assert_same_reads(bytes(zero_bytes), start, "ue")


def test_a_code_cut_off_by_the_end_fails_like_a_bit_serial_read():
    """Its zero-padded peek hits a table slot, but a code (or a tabled
    pair's sign bit) past the end fails at the end, on a one-bit read,
    with every bit before it consumed."""
    longest = max(range(2, len(COEFF_TABLE.codes)), key=lambda s: COEFF_TABLE.codes[s][1])
    assert COEFF_TABLE.codes[longest][1] > 8
    w = BitWriter()
    COEFF_TABLE.write_symbol(w, longest)
    w.write_bit(0)  # its sign
    r = BitReader(w.getvalue()[:1])
    with pytest.raises(ReadPastEndError, match=r"^read of 1 bits past end \(at bit 8 of 8\)$"):
        decode_block_pairs(r)
    assert r.bit_position == 8

    code, length = COEFF_TABLE.codes[VlcTable.pair_symbol(0, 1)]
    lead = -length % 8  # the code ends with the data
    w = BitWriter()
    w.write_bits(0, lead)
    w.write_bits(code, length)
    r = BitReader(w.getvalue())
    r._pos = lead
    end = w.bits_written
    with pytest.raises(ReadPastEndError, match=rf"^read of 1 bits past end \(at bit {end} of {end}\)$"):
        decode_block_pairs(r)
    assert r.bit_position == end
