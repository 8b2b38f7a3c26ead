"""Cyclic FIFO buffer address arithmetic (paper Figures 5-6).

A stream buffer is a fixed-size region of shared SRAM used cyclically:
a task port's *access point* is an absolute (monotonically increasing)
stream position; byte ``position + k`` lives at SRAM address
``base + (position + k) mod size``.  :class:`CyclicBuffer` converts
absolute stream ranges into at most two linear SRAM segments, and into
the set of cache lines they touch — the primitives shells need for
Read/Write routing, cache invalidation and flush.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["CyclicBuffer"]


class CyclicBuffer:
    """Address window of one stream buffer in linear memory.

    Stream positions advance in fixed sync grains, so the residues
    ``position % size`` a run ever produces form a small set and the
    same ``segments``/``lines`` decompositions recur thousands of
    times.  Both are pure functions of ``(position % size, n_bytes[,
    line_size])`` and are memoized on that key.  Callers treat the
    returned lists as read-only (they iterate), which makes sharing
    them safe.
    """

    _MEMO_CAP = 4096  # safety valve for pathological grain patterns

    def __init__(self, base: int, size: int):
        if base < 0:
            raise ValueError(f"base must be >= 0, got {base}")
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        self.base = base
        self.size = size
        self._seg_memo: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        self._line_memo: Dict[Tuple[int, int, int], List[int]] = {}

    def addr_of(self, position: int) -> int:
        """SRAM address of absolute stream position ``position``."""
        if position < 0:
            raise ValueError(f"position must be >= 0, got {position}")
        return self.base + position % self.size

    def segments(self, position: int, n_bytes: int) -> List[Tuple[int, int]]:
        """Linear (addr, length) pieces covering ``n_bytes`` at ``position``.

        At most two pieces (the range wraps at most once); ``n_bytes``
        must not exceed the buffer size — a correct shell never grants
        a window larger than the buffer.
        """
        key = (position % self.size, n_bytes)
        segs = self._seg_memo.get(key)
        if segs is not None:
            return segs
        if n_bytes < 0:
            raise ValueError(f"n_bytes must be >= 0, got {n_bytes}")
        if n_bytes > self.size:
            raise ValueError(
                f"range of {n_bytes} B exceeds buffer size {self.size} B"
            )
        segs = []
        if n_bytes:
            off = key[0]
            first = min(n_bytes, self.size - off)
            segs.append((self.base + off, first))
            if first < n_bytes:
                segs.append((self.base, n_bytes - first))
        if len(self._seg_memo) >= self._MEMO_CAP:
            self._seg_memo.clear()
        self._seg_memo[key] = segs
        return segs

    def lines(self, position: int, n_bytes: int, line_size: int) -> List[int]:
        """Line-aligned SRAM addresses of all cache lines the range
        touches, in ascending order, deduplicated."""
        key = (position % self.size, n_bytes, line_size)
        out = self._line_memo.get(key)
        if out is not None:
            return out
        touched = set()
        for addr, length in self.segments(position, n_bytes):
            first = addr - addr % line_size
            last = addr + length - 1
            touched.update(range(first, last + 1, line_size))
        if len(self._line_memo) >= self._MEMO_CAP:
            self._line_memo.clear()
        out = self._line_memo[key] = sorted(touched)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CyclicBuffer base={self.base} size={self.size}>"
