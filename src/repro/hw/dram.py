"""Off-chip memory model.

Figure 8 of the paper gives the MC/ME coprocessor "a dedicated
connection to the system bus to access MPEG reference frames in
off-chip memory", and the VLD fetches compressed bit-streams the same
way.  :class:`OffChipMemory` models that port: sparse byte storage
behind a :class:`~repro.hw.bus.Bus` with DRAM-scale setup latency.

In this reproduction the media kernels keep reference-frame *content*
as task state (the data never crosses the stream network, exactly as in
the paper) and charge the *timing* of each off-chip access through
this model via the ``ExternalAccessOp`` kernel op.
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.hw.bus import Bus
from repro.sim import Simulator

__all__ = ["OffChipMemory"]

_PAGE = 4096


class OffChipMemory:
    """Sparse off-chip memory with a single arbitrated access port."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "dram",
        width_bytes: int = 8,
        access_latency: int = 20,
    ):
        self.sim = sim
        self.name = name
        self.bus = Bus(sim, name=f"{name}.port", width_bytes=width_bytes, setup_latency=access_latency)
        self._pages: Dict[int, bytearray] = {}
        self.bytes_read = 0
        self.bytes_written = 0

    # ------------------------------------------------------------------
    # storage (zero-time; used for content when needed)
    # ------------------------------------------------------------------
    def _page(self, number: int) -> bytearray:
        page = self._pages.get(number)
        if page is None:
            page = self._pages[number] = bytearray(_PAGE)
        return page

    def read(self, addr: int, n_bytes: int) -> bytes:
        if addr < 0 or n_bytes < 0:
            raise IndexError("negative address or length")
        out = bytearray()
        while n_bytes:
            off = addr % _PAGE
            take = min(n_bytes, _PAGE - off)
            out.extend(self._page(addr // _PAGE)[off : off + take])
            addr += take
            n_bytes -= take
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        if addr < 0:
            raise IndexError("negative address")
        pos = 0
        while pos < len(data):
            off = addr % _PAGE
            take = min(len(data) - pos, _PAGE - off)
            self._page(addr // _PAGE)[off : off + take] = data[pos : pos + take]
            addr += take
            pos += take

    # ------------------------------------------------------------------
    # timed access
    # ------------------------------------------------------------------
    def access(self, n_bytes: int, is_write: bool, master: str = "") -> Generator:
        """Timed transfer over the off-chip port (process-style)."""
        yield from self.bus.transfer(n_bytes, master=master)
        if is_write:
            self.bytes_written += n_bytes
        else:
            self.bytes_read += n_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OffChipMemory {self.name!r} r={self.bytes_read}B w={self.bytes_written}B>"
