"""Shell data caches with explicit, synchronization-driven coherency.

Paper §5.2: "the shell incorporates separate read and write caches ...
The GetSpace/PutSpace synchronization mechanism explicitly controls
cache coherency, fully transparent to the coprocessor", replacing
generic mechanisms like bus snooping with three rules:

1. the granted window is private → plain hits are safe;
2. a GetSpace that *extends* the window invalidates read-cache lines in
   the extension (fresh data will be refetched);
3. a PutSpace that *reduces* the window flushes dirty write-cache bytes
   in the reduction before the putspace message is sent.

These classes are pure bookkeeping (deterministic LRU state + byte
masks); the shell charges the bus/memory time around them.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, List, Tuple

__all__ = ["ReadCache", "WriteCache", "CacheStats"]


@dataclass
class CacheStats:
    """Hit/miss/traffic counters for one cache."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0
    prefetch_fills: int = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ReadCache:
    """LRU cache of clean lines fetched from the stream memory."""

    def __init__(self, capacity_lines: int, line_size: int):
        if capacity_lines < 1:
            raise ValueError("capacity_lines must be >= 1")
        self.capacity = capacity_lines
        self.line_size = line_size
        self._lines: "OrderedDict[int, bytes]" = OrderedDict()
        self.stats = CacheStats()

    def fill(self, line_addr: int, data: bytes, prefetch: bool = False) -> None:
        if len(data) != self.line_size:
            raise ValueError(f"fill of {len(data)} B into {self.line_size} B line")
        if line_addr in self._lines:
            self._lines.move_to_end(line_addr)
        self._lines[line_addr] = data
        if prefetch:
            self.stats.prefetch_fills += 1
        while len(self._lines) > self.capacity:
            self._lines.popitem(last=False)
            self.stats.evictions += 1

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._lines

    def invalidate(self, line_addrs: Iterable[int]) -> int:
        """Drop the given lines (coherency rule 2); returns count dropped."""
        dropped = 0
        for addr in line_addrs:
            if self._lines.pop(addr, None) is not None:
                dropped += 1
        self.stats.invalidations += dropped
        return dropped

    def line_addrs(self) -> List[int]:
        """Cached line addresses in LRU→MRU order (no promotion)."""
        return list(self._lines)

    def export_state(self) -> dict:
        """JSON-safe view: LRU order, contents, and counters."""
        return {
            "capacity": self.capacity,
            "line_size": self.line_size,
            "lines": [
                {"addr": addr, "data": data.hex()}
                for addr, data in self._lines.items()
            ],
            "stats": {
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "invalidations": self.stats.invalidations,
                "evictions": self.stats.evictions,
                "prefetch_fills": self.stats.prefetch_fills,
            },
        }

    def __len__(self) -> int:
        return len(self._lines)


class WriteCache:
    """Write-allocate, no-fetch cache of dirty byte-masked lines.

    Lines never hold clean data: a flush writes the dirty bytes to
    memory (byte enables) and drops them.  The byte mask is what makes
    a producer flushing a partially-written line safe when the same
    SRAM line also holds a neighbour's committed bytes.
    """

    def __init__(self, capacity_lines: int, line_size: int):
        if capacity_lines < 1:
            raise ValueError("capacity_lines must be >= 1")
        self.capacity = capacity_lines
        self.line_size = line_size
        #: line_addr -> (data bytearray, dirty-mask bytearray)
        self._lines: "OrderedDict[int, Tuple[bytearray, bytearray]]" = OrderedDict()
        self.stats = CacheStats()
        #: a line's worth of set mask bytes, sliced into a written range
        self._ones = b"\x01" * line_size

    def write(self, addr: int, data: bytes) -> List[Tuple[int, bytes, bytes]]:
        """Stage ``data`` at SRAM address ``addr`` (may span lines).

        Returns LRU lines evicted to stay within capacity as
        ``(line_addr, data, mask)`` tuples — the shell must flush them.
        """
        size = self.line_size
        ones = self._ones
        lines = self._lines
        stats = self.stats
        n = len(data)
        pos = 0
        line_addr = addr - addr % size
        off = addr - line_addr
        while pos < n:
            take = min(n - pos, size - off)
            entry = lines.get(line_addr)
            if entry is None:
                stats.misses += 1
                if take == size:
                    # a whole new line: its bytes and mask in one copy each
                    lines[line_addr] = (bytearray(data[pos : pos + size]), bytearray(ones))
                    pos += size
                    line_addr += size
                    continue
                entry = lines[line_addr] = (bytearray(size), bytearray(size))
            else:
                lines.move_to_end(line_addr)
                stats.hits += 1
            buf, mask = entry
            buf[off : off + take] = data[pos : pos + take]
            mask[off : off + take] = ones[off : off + take]
            pos += take
            line_addr += size
            off = 0
        evicted = []
        while len(lines) > self.capacity:
            line_addr, (buf, mask) = lines.popitem(last=False)
            evicted.append((line_addr, bytes(buf), bytes(mask)))
            stats.evictions += 1
        return evicted

    def flush_range(self, addr: int, n_bytes: int) -> List[Tuple[int, bytes, bytes]]:
        """Take dirty bytes intersecting ``[addr, addr+n_bytes)`` for
        flushing (coherency rule 3).

        Dirty bytes *outside* the range stay cached (they belong to the
        still-private part of the window).  Returns ``(line_addr, data,
        mask)`` tuples restricted to the intersection.
        """
        if n_bytes <= 0:
            return []
        size = self.line_size
        lines = self._lines
        out = []
        end = addr + n_bytes
        for line_addr in range(addr - addr % size, end, size):
            entry = lines.get(line_addr)
            if entry is None:
                continue
            buf, mask = entry
            lo = max(addr, line_addr) - line_addr
            hi = min(end, line_addr + size) - line_addr
            if hi - lo == size:
                # the range covers the whole line: take it as it is (a
                # cached line always holds at least one dirty byte)
                del lines[line_addr]
                out.append((line_addr, bytes(buf), bytes(mask)))
                continue
            take_mask = bytearray(size)
            take_mask[lo:hi] = mask[lo:hi]
            mask[lo:hi] = bytes(hi - lo)
            if any(take_mask):
                out.append((line_addr, bytes(buf), bytes(take_mask)))
            if not any(mask):
                del lines[line_addr]
        return out

    def dirty_lines(self) -> int:
        return len(self._lines)

    def dirty_items(self) -> List[Tuple[int, bytes, bytes]]:
        """Non-destructive view of cached lines as ``(line_addr, data,
        mask)`` in LRU→MRU order — for monitors and snapshots."""
        return [
            (addr, bytes(buf), bytes(mask))
            for addr, (buf, mask) in self._lines.items()
        ]

    def export_state(self) -> dict:
        """JSON-safe view: LRU order, contents, masks, and counters."""
        return {
            "capacity": self.capacity,
            "line_size": self.line_size,
            "lines": [
                {"addr": addr, "data": bytes(buf).hex(), "mask": bytes(mask).hex()}
                for addr, (buf, mask) in self._lines.items()
            ],
            "stats": {
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "invalidations": self.stats.invalidations,
                "evictions": self.stats.evictions,
                "prefetch_fills": self.stats.prefetch_fills,
            },
        }

    def __len__(self) -> int:
        return len(self._lines)
