"""Unit tests for the shell read/write caches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ReadCache, WriteCache
from repro.hw import OnChipMemory


def _contents(c):
    """The cached lines, as {addr: bytes}, from the exported state."""
    return {line["addr"]: bytes.fromhex(line["data"]) for line in c.export_state()["lines"]}


def test_read_cache_fill_and_lookup():
    c = ReadCache(capacity_lines=2, line_size=4)
    assert not c.contains(0)
    c.fill(0, b"abcd")
    assert c.contains(0)
    assert _contents(c) == {0: b"abcd"}


def test_read_cache_lru_eviction():
    c = ReadCache(capacity_lines=2, line_size=4)
    c.fill(0, b"aaaa")
    c.fill(4, b"bbbb")
    c.fill(0, b"aaaa")  # a refill promotes line 0
    assert c.line_addrs() == [4, 0]
    c.fill(8, b"cccc")  # evicts line 4 (LRU)
    assert c.line_addrs() == [0, 8]
    assert not c.contains(4)
    assert _contents(c) == {0: b"aaaa", 8: b"cccc"}
    assert c.stats.evictions == 1


def test_read_cache_invalidate():
    c = ReadCache(capacity_lines=4, line_size=4)
    c.fill(0, b"aaaa")
    c.fill(4, b"bbbb")
    dropped = c.invalidate([0, 8])  # 8 not present
    assert dropped == 1
    assert not c.contains(0)
    assert _contents(c) == {4: b"bbbb"}
    assert c.stats.invalidations == 1


def test_read_cache_wrong_fill_size():
    c = ReadCache(capacity_lines=2, line_size=4)
    with pytest.raises(ValueError):
        c.fill(0, b"toolong!")


def test_read_cache_prefetch_counter():
    c = ReadCache(capacity_lines=2, line_size=4)
    c.fill(0, b"aaaa", prefetch=True)
    assert c.stats.prefetch_fills == 1


def test_write_cache_stage_and_flush():
    c = WriteCache(capacity_lines=4, line_size=8)
    assert c.write(0, b"hello") == []
    flushed = c.flush_range(0, 5)
    assert len(flushed) == 1
    addr, data, mask = flushed[0]
    assert addr == 0
    assert data[:5] == b"hello"
    assert mask == bytes([1, 1, 1, 1, 1, 0, 0, 0])
    assert c.dirty_lines() == 0


def test_write_cache_partial_flush_keeps_rest_dirty():
    c = WriteCache(capacity_lines=4, line_size=8)
    c.write(0, b"ABCDEFGH")
    flushed = c.flush_range(0, 4)
    assert flushed[0][2] == bytes([1, 1, 1, 1, 0, 0, 0, 0])
    assert c.dirty_lines() == 1  # bytes 4..7 still dirty
    flushed2 = c.flush_range(4, 4)
    assert flushed2[0][2] == bytes([0, 0, 0, 0, 1, 1, 1, 1])
    assert c.dirty_lines() == 0


def test_write_cache_spans_lines():
    c = WriteCache(capacity_lines=4, line_size=8)
    c.write(6, b"1234")  # bytes 6,7 in line 0; 8,9 in line 8
    flushed = c.flush_range(6, 4)
    assert [f[0] for f in flushed] == [0, 8]
    assert flushed[0][1][6:8] == b"12"
    assert flushed[1][1][0:2] == b"34"


def test_write_cache_capacity_eviction():
    c = WriteCache(capacity_lines=2, line_size=8)
    c.write(0, b"a")
    c.write(8, b"b")
    evicted = c.write(16, b"c")
    assert len(evicted) == 1
    assert evicted[0][0] == 0  # LRU line
    assert c.stats.evictions == 1


def test_write_cache_overwrite_same_bytes():
    c = WriteCache(capacity_lines=2, line_size=8)
    c.write(0, b"AAAA")
    c.write(2, b"BB")
    flushed = c.flush_range(0, 4)
    assert flushed[0][1][:4] == b"AABB"


def test_write_cache_flush_empty_range():
    c = WriteCache(capacity_lines=2, line_size=8)
    c.write(0, b"x")
    assert c.flush_range(0, 0) == []
    assert c.flush_range(8, 8) == []  # different line, nothing dirty


def test_write_cache_hit_miss_counters():
    c = WriteCache(capacity_lines=2, line_size=8)
    c.write(0, b"a")  # miss (new line)
    c.write(1, b"b")  # hit (same line)
    assert c.stats.misses == 1
    assert c.stats.hits == 1


# ----------------------------------------------------------------------
# the line-at-a-time write path against the byte-at-a-time reference
# ----------------------------------------------------------------------
class _ReferenceWriteCache(WriteCache):
    """The write cache as it staged and flushed byte masks one statement
    per line piece, kept as the reference the slice-per-line path must
    match."""

    def write(self, addr, data):
        pos = 0
        while pos < len(data):
            line_addr = (addr + pos) - (addr + pos) % self.line_size
            off = (addr + pos) - line_addr
            take = min(len(data) - pos, self.line_size - off)
            entry = self._lines.get(line_addr)
            if entry is None:
                entry = (bytearray(self.line_size), bytearray(self.line_size))
                self._lines[line_addr] = entry
                self.stats.misses += 1
            else:
                self._lines.move_to_end(line_addr)
                self.stats.hits += 1
            buf, mask = entry
            buf[off : off + take] = data[pos : pos + take]
            mask[off : off + take] = b"\x01" * take
            pos += take
        evicted = []
        while len(self._lines) > self.capacity:
            line_addr, (buf, mask) = self._lines.popitem(last=False)
            evicted.append((line_addr, bytes(buf), bytes(mask)))
            self.stats.evictions += 1
        return evicted

    def flush_range(self, addr, n_bytes):
        if n_bytes <= 0:
            return []
        out = []
        end = addr + n_bytes
        first_line = addr - addr % self.line_size
        for line_addr in range(first_line, end, self.line_size):
            entry = self._lines.get(line_addr)
            if entry is None:
                continue
            buf, mask = entry
            lo = max(addr, line_addr) - line_addr
            hi = min(end, line_addr + self.line_size) - line_addr
            take_mask = bytearray(self.line_size)
            take_mask[lo:hi] = mask[lo:hi]
            mask[lo:hi] = bytes(hi - lo)
            if any(take_mask):
                out.append((line_addr, bytes(buf), bytes(take_mask)))
            if not any(mask):
                del self._lines[line_addr]
        return out


class _ReferenceMemory(OnChipMemory):
    """Masked SRAM writes byte by byte below 64 bytes and through a numpy
    boolean mask from 64 bytes up: the reference for run-by-run copies."""

    def write_masked(self, addr, data, mask):
        if len(data) != len(mask):
            raise ValueError("data and mask lengths differ")
        self._check(addr, len(data))
        self.total_writes += 1
        n = len(data)
        zeros = mask.count(0)
        mem = self._mem
        if zeros == 0:
            mem[addr : addr + n] = data
            self.bytes_written += n
            return
        if zeros == n:
            return
        if n >= 64:
            sel = np.frombuffer(mask, dtype=np.uint8) != 0
            region = np.frombuffer(mem, dtype=np.uint8, count=n, offset=addr).copy()
            region[sel] = np.frombuffer(data, dtype=np.uint8)[sel]
            mem[addr : addr + n] = region.tobytes()
        else:
            for i, m in enumerate(mask):
                if m:
                    mem[addr + i] = data[i]
        self.bytes_written += n - zeros


def _points(line, span):
    """Addresses in ``[0, span]``, about half of them on a line boundary
    or one byte off it, so that ranges often cover a line all but one
    byte."""
    edges = sorted({k * line + d for k in range(span // line + 1) for d in (-1, 0, 1)}
                   & set(range(span + 1)))
    return st.one_of(st.sampled_from(edges), st.integers(0, span))


#: byte enables as runs of one value: 0 (off), 1, or any other nonzero byte
_MASK_RUNS = st.lists(
    st.tuples(st.integers(1, 40), st.one_of(st.just(0), st.just(1), st.integers(0, 255))),
    max_size=10,
)


@settings(max_examples=200, deadline=None)
@given(line=st.integers(4, 128), capacity=st.integers(1, 4), data=st.data())
def test_write_path_matches_the_per_byte_reference(line, capacity, data):
    """Random writes, flushes and masked SRAM writes, spanning lines, give
    the same returned lines, cache state, stats, SRAM bytes and SRAM
    counters as the reference path."""
    span = 5 * line
    cache, ref_cache = WriteCache(capacity, line), _ReferenceWriteCache(capacity, line)
    mem, ref_mem = OnChipMemory(span), _ReferenceMemory(span)
    for m in (mem, ref_mem):
        m.alloc(span, name="sram")
    points = _points(line, span)
    for _ in range(data.draw(st.integers(1, 12), label="ops")):
        op = data.draw(st.sampled_from(["write", "flush", "masked"]), label="op")
        addr, end = sorted((data.draw(points, label="addr"), data.draw(points, label="end")))
        n = end - addr
        if op == "masked":
            payload = data.draw(st.binary(min_size=n, max_size=n), label="payload")
            runs = data.draw(_MASK_RUNS, label="mask runs")
            mask = b"".join(bytes([value]) * length for length, value in runs)
            mask = mask[:n].ljust(n, b"\x01")
            mem.write_masked(addr, payload, mask)
            ref_mem.write_masked(addr, payload, mask)
        else:
            if op == "write":
                payload = data.draw(st.binary(min_size=n, max_size=n), label="payload")
                lines, ref_lines = cache.write(addr, payload), ref_cache.write(addr, payload)
            else:
                lines, ref_lines = cache.flush_range(addr, n), ref_cache.flush_range(addr, n)
            assert lines == ref_lines
            for line_addr, line_data, line_mask in lines:
                mem.write_masked(line_addr, line_data, line_mask)
                ref_mem.write_masked(line_addr, line_data, line_mask)
        assert cache.dirty_items() == ref_cache.dirty_items()
        assert cache.export_state() == ref_cache.export_state()
        assert cache.stats == ref_cache.stats
        assert mem.export_state() == ref_mem.export_state()
