"""Unit tests for the bit-level reader/writer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.media.bitstream import BitReader, BitWriter, BitstreamError, ReadPastEndError


def test_write_read_roundtrip_simple():
    w = BitWriter()
    w.write_bits(0b101, 3)
    w.write_bits(0xFF, 8)
    w.write_bits(0, 5)
    r = BitReader(w.getvalue())
    assert r.read_bits(3) == 0b101
    assert r.read_bits(8) == 0xFF
    assert r.read_bits(5) == 0


def test_getvalue_pads_without_consuming():
    w = BitWriter()
    w.write_bits(1, 1)
    snap1 = w.getvalue()
    w.write_bits(1, 1)
    snap2 = w.getvalue()
    assert snap1 == b"\x80"
    assert snap2 == b"\xc0"


def test_align():
    w = BitWriter()
    w.write_bits(1, 1)
    w.align()
    w.write_bits(0xAB, 8)
    assert w.getvalue() == b"\x80\xab"
    r = BitReader(w.getvalue())
    r.read_bits(1)
    r.align()
    assert r.read_bits(8) == 0xAB


def test_value_out_of_range_rejected():
    w = BitWriter()
    with pytest.raises(BitstreamError):
        w.write_bits(4, 2)
    with pytest.raises(BitstreamError):
        w.write_bits(-1, 4)


def test_read_past_end_rejected():
    r = BitReader(b"\xff")
    r.read_bits(8)
    with pytest.raises(BitstreamError):
        r.read_bits(1)


def test_read_past_end_is_its_own_error_with_the_same_text():
    r = BitReader(b"\xff\x00")
    r.read_bits(3)
    with pytest.raises(ReadPastEndError, match=r"^read of 14 bits past end \(at bit 3 of 16\)$"):
        r.read_bits(14)
    assert r.bit_position == 3
    with pytest.raises(BitstreamError) as info:
        r.read_bits(65)
    assert not isinstance(info.value, ReadPastEndError)


def test_padded_peek_reads_zeros_past_the_end_without_consuming():
    r = BitReader(b"\xa5")
    r.read_bits(4)
    assert r.peek_padded(8) == 0x50
    assert r.peek_padded(14) == 0x5 << 10
    assert r.bit_position == 4
    r.skip_code(4)
    assert r.peek_padded(14) == 0
    with pytest.raises(ReadPastEndError, match=r"^read of 1 bits past end \(at bit 8 of 8\)$"):
        r.skip_code(1)


def test_peek_does_not_consume():
    r = BitReader(b"\xa5")
    assert r.peek_bits(4) == 0xA
    assert r.read_bits(8) == 0xA5


def test_exp_golomb_known_values():
    w = BitWriter()
    for v in range(6):
        w.write_ue(v)
    r = BitReader(w.getvalue())
    assert [r.read_ue() for _ in range(6)] == [0, 1, 2, 3, 4, 5]


def test_signed_exp_golomb_known_values():
    w = BitWriter()
    values = [0, 1, -1, 2, -2, 7, -7]
    for v in values:
        w.write_se(v)
    r = BitReader(w.getvalue())
    assert [r.read_se() for _ in range(len(values))] == values


@given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=50))
def test_ue_roundtrip_property(values):
    w = BitWriter()
    for v in values:
        w.write_ue(v)
    r = BitReader(w.getvalue())
    assert [r.read_ue() for _ in values] == values


@given(st.lists(st.integers(min_value=-5_000, max_value=5_000), max_size=50))
def test_se_roundtrip_property(values):
    w = BitWriter()
    for v in values:
        w.write_se(v)
    r = BitReader(w.getvalue())
    assert [r.read_se() for _ in values] == values


@given(st.lists(st.tuples(st.integers(0, 2**16 - 1), st.integers(1, 16)), max_size=60))
def test_write_bits_roundtrip_property(chunks):
    chunks = [(v & ((1 << n) - 1), n) for v, n in chunks]
    w = BitWriter()
    for v, n in chunks:
        w.write_bits(v, n)
    r = BitReader(w.getvalue())
    assert [(r.read_bits(n), n) for _v, n in chunks] == chunks


def test_bits_remaining():
    r = BitReader(b"\x00\x00")
    assert r.bits_remaining() == 16
    r.read_bits(5)
    assert r.bits_remaining() == 11
