"""On-chip SRAM: storage for stream buffers plus a bump allocator.

Paper §3: "communication buffers in a centralized, wide on-chip
memory"; the first instance uses a 32 kB SRAM with a 128-bit datapath
(§6).  Timing lives in the buses (:mod:`repro.hw.bus`) — the SRAM of
the paper runs at twice the bus clock precisely so that it can serve
both buses without being the bottleneck, so modelling it as always-
ready storage behind the buses is faithful.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = ["OnChipMemory", "AllocationError"]

#: ``bytes.translate`` table mapping a mask byte to its enable: 0 stays
#: 0, every nonzero byte becomes 1
_ENABLES = bytes([0]) + b"\x01" * 255


class AllocationError(MemoryError):
    """Raised when a buffer does not fit in the remaining SRAM."""


class OnChipMemory:
    """Byte-addressable SRAM with bounds checking and an allocator.

    The allocator is a bump allocator with alignment — buffer layout is
    decided once at configuration time (paper: buffers "pre-allocated in
    shared on-chip memory", §5.1), so no free list is needed; ``reset``
    reclaims everything between applications.
    """

    def __init__(self, size_bytes: int):
        if size_bytes < 1:
            raise ValueError(f"size_bytes must be >= 1, got {size_bytes}")
        self.size = size_bytes
        self._mem = bytearray(size_bytes)
        self._next_free = 0
        #: name -> (base, size) of live allocations
        self.allocations: Dict[str, Tuple[int, int]] = {}
        self.total_reads = 0
        self.total_writes = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def alloc(self, n_bytes: int, name: str = "", align: int = 1) -> int:
        """Reserve ``n_bytes`` aligned to ``align``; returns base address."""
        if n_bytes < 1:
            raise AllocationError(f"allocation {name!r}: size must be >= 1")
        if align < 1 or (align & (align - 1)) != 0:
            raise ValueError(f"align must be a power of two, got {align}")
        base = (self._next_free + align - 1) & ~(align - 1)
        if base + n_bytes > self.size:
            raise AllocationError(
                f"allocation {name!r} ({n_bytes} B) does not fit: "
                f"{self.size - base} B free of {self.size} B"
            )
        self._next_free = base + n_bytes
        if name:
            self.allocations[name] = (base, n_bytes)
        return base

    @property
    def bytes_free(self) -> int:
        return self.size - self._next_free

    @property
    def bytes_allocated(self) -> int:
        return self._next_free

    def reset(self) -> None:
        """Drop all allocations and zero the memory (reconfiguration)."""
        self._next_free = 0
        self.allocations.clear()
        self._mem[:] = bytes(self.size)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def read(self, addr: int, n_bytes: int) -> bytes:
        self._check(addr, n_bytes)
        self.total_reads += 1
        self.bytes_read += n_bytes
        return bytes(self._mem[addr : addr + n_bytes])

    def write(self, addr: int, data: bytes) -> None:
        self._check(addr, len(data))
        self.total_writes += 1
        self.bytes_written += len(data)
        self._mem[addr : addr + len(data)] = data

    def write_masked(self, addr: int, data: bytes, mask: bytes) -> None:
        """Write only bytes whose mask byte is nonzero (byte enables).

        This is how a shell's write cache flushes a partially dirty
        line without clobbering a neighbour's committed bytes.
        """
        if len(data) != len(mask):
            raise ValueError("data and mask lengths differ")
        self._check(addr, len(data))
        self.total_writes += 1
        n = len(data)
        zeros = mask.count(0)
        mem = self._mem
        if zeros == 0:
            mem[addr : addr + n] = data
        elif zeros < n:
            # copy each run of enabled bytes with one slice
            enables = mask.translate(_ENABLES)
            start = enables.find(1)
            while start >= 0:
                stop = enables.find(0, start)
                if stop < 0:
                    stop = n
                mem[addr + start : addr + stop] = data[start:stop]
                start = enables.find(1, stop)
        self.bytes_written += n - zeros

    def export_state(self) -> dict:
        """JSON-safe view: allocator state, counters, and the contents
        of every live allocation (not the whole SRAM — untouched bytes
        past ``_next_free`` are definitionally zero)."""
        return {
            "size": self.size,
            "next_free": self._next_free,
            "allocations": {
                name: {
                    "base": base,
                    "size": size,
                    "data": bytes(self._mem[base : base + size]).hex(),
                }
                for name, (base, size) in sorted(self.allocations.items())
            },
            "counters": {
                "total_reads": self.total_reads,
                "total_writes": self.total_writes,
                "bytes_read": self.bytes_read,
                "bytes_written": self.bytes_written,
            },
        }

    def _check(self, addr: int, n_bytes: int) -> None:
        if addr < 0 or n_bytes < 0 or addr + n_bytes > self.size:
            raise IndexError(
                f"SRAM access [{addr}:{addr + n_bytes}) outside [0:{self.size})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OnChipMemory {self.size}B, {self.bytes_free}B free>"
