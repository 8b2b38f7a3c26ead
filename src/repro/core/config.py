"""Architecture template parameters.

The Eclipse template is parameterized (paper §2.3: "memory size, bus
width, number and type of (co)processors"); §7 explores cache size,
prefetching, bus latency and width through a simulator setup file.
These dataclasses are that setup file.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Literal, Optional

__all__ = ["ShellParams", "CoprocessorSpec", "SystemParams"]


def _from_flat_dict(cls, data: dict):
    """Rebuild a flat dataclass, rejecting unknown keys with a clear
    message (the JSON run reports round-trip through this)."""
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    return cls(**data)


@dataclass
class ShellParams:
    """Per-shell template parameters (paper §3.1: "shell instances with
    coprocessor-specific parameter settings are derived from this
    generic template")."""

    #: cache line size in bytes (read and write caches)
    cache_line: int = 32
    #: read cache capacity in lines
    read_cache_lines: int = 16
    #: write cache capacity in lines
    write_cache_lines: int = 8
    #: lines fetched ahead on GetSpace/Read (0 disables; paper §5.2:
    #: "the shell also initiates stream prefetches upon local GetSpace
    #: and Read requests")
    prefetch_lines: int = 2
    #: shell response latency for GetSpace
    getspace_cycles: int = 1
    #: shell response latency for PutSpace (excl. flush/message time)
    putspace_cycles: int = 1
    #: shell response latency for GetTask (the HW scheduler's decision)
    gettask_cycles: int = 2
    #: coprocessor-shell datapath width in bytes (paper §3.1 names the
    #: read/write interface width as a per-coprocessor parameter)
    port_width: int = 16
    #: the §5.3 'best guess': skip tasks with an outstanding denied
    #: GetSpace.  False gives the naive round-robin baseline that
    #: busy-polls blocked tasks (EXP-A5 ablation).
    best_guess_scheduling: bool = True

    def __post_init__(self) -> None:
        if self.cache_line < 1 or (self.cache_line & (self.cache_line - 1)) != 0:
            raise ValueError(f"cache_line must be a power of two, got {self.cache_line}")
        for name in ("read_cache_lines", "write_cache_lines", "port_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("prefetch_lines", "getspace_cycles", "putspace_cycles", "gettask_cycles"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def with_(self, **kw) -> "ShellParams":
        """Copy with overrides (sweep helper)."""
        return replace(self, **kw)

    def to_dict(self) -> dict:
        """JSON-ready form (run-report / RunSpec serialization)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ShellParams":
        return _from_flat_dict(cls, data)


@dataclass
class CoprocessorSpec:
    """One computation unit: a hardwired coprocessor or the DSP-CPU.

    ``compute_factor`` scales every kernel ComputeOp — software tasks on
    the media processor run the same kernels slower (paper §3: functions
    "specific for one application only ... executed in software").
    """

    name: str
    is_software: bool = False
    compute_factor: float = 1.0
    shell: ShellParams = field(default_factory=ShellParams)

    def __post_init__(self) -> None:
        if self.compute_factor <= 0:
            raise ValueError("compute_factor must be > 0")

    def to_dict(self) -> dict:
        """JSON-ready form (nested shell serialized too)."""
        return {
            "name": self.name,
            "is_software": self.is_software,
            "compute_factor": self.compute_factor,
            "shell": self.shell.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CoprocessorSpec":
        data = dict(data)
        shell = data.pop("shell", None)
        spec = _from_flat_dict(cls, data)
        if shell is not None:
            spec.shell = ShellParams.from_dict(shell)
        return spec


@dataclass
class SystemParams:
    """Instance-wide parameters (the §7 simulator setup file)."""

    #: on-chip SRAM size in bytes (first instance: 32 kB, §6)
    sram_size: int = 32 * 1024
    #: data bus width in bytes (first instance: 128 bits = 16 B, §6)
    bus_width: int = 16
    #: fixed cycles per bus transaction (arbitration + address phase)
    bus_setup_latency: int = 2
    #: putspace/eos message latency between shells (paper Figure 7)
    msg_latency: int = 4
    #: extra random per-message delay in [0, msg_jitter] cycles —
    #: failure injection; 0 models the real FIFO fabric
    msg_jitter: int = 0
    #: seed for the jitter randomness (runs stay reproducible)
    msg_seed: int = 0
    #: off-chip port width in bytes
    dram_width: int = 8
    #: off-chip access latency in cycles
    dram_latency: int = 20
    #: synchronization implementation: Eclipse's distributed shells, or
    #: the centralized CPU-interrupt baseline the paper argues against
    #: (§2.3: "a coprocessor architecture where a single CPU
    #: synchronizes all coprocessors is not scalable")
    sync_mode: Literal["distributed", "centralized"] = "distributed"
    #: CPU cycles consumed per sync operation in centralized mode
    #: (interrupt entry + handler + table update)
    central_sync_cycles: int = 40
    #: cache coherency: Eclipse's explicit GetSpace/PutSpace-driven
    #: mechanism, or a bus-snooping cost model baseline (§5.2)
    coherency: Literal["explicit", "snooping"] = "explicit"
    #: per-shell snoop-port occupancy added to every memory transaction
    #: in snooping mode
    snoop_cycles_per_shell: int = 1
    #: shell watchdog: re-send cumulative space credits (and EOS for
    #: finished tasks) after this many cycles without local progress;
    #: None disables the watchdog (recovery off)
    watchdog_timeout: Optional[int] = None
    #: multiplicative backoff applied to the watchdog interval after
    #: each fire without progress
    watchdog_backoff: int = 2
    #: cap on the backed-off interval, as a multiple of the timeout
    watchdog_max_backoff: int = 16
    #: deadlock detector: check global progress every this many cycles
    deadlock_check_interval: int = 10_000
    #: consecutive zero-progress checks before declaring deadlock
    deadlock_patience: int = 5
    #: run the deadlock detector; None = auto (on when faults are
    #: injected or the watchdog is enabled)
    deadlock_detection: Optional[bool] = None
    #: observability tier: "off" / "counters" / "series" / "full" —
    #: how much a run records (byte histories, fill statistics,
    #: sampler series, op logs, span traces).  "full" is byte-identical
    #: to the pre-contract behaviour and stays the default; lower
    #: levels shed recording cost without changing the event schedule.
    #: See docs/observability.md.
    obs_level: str = "full"
    #: auto-attach a Sampler at this interval during configure()
    #: (None = no periodic sampling; requires obs_level >= "series")
    sample_interval: Optional[int] = None

    def __post_init__(self) -> None:
        if self.sram_size < 1:
            raise ValueError("sram_size must be >= 1")
        if self.bus_width < 1:
            raise ValueError("bus_width must be >= 1")
        for name in (
            "bus_setup_latency",
            "msg_latency",
            "msg_jitter",
            "dram_latency",
            "central_sync_cycles",
            "snoop_cycles_per_shell",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.watchdog_timeout is not None and self.watchdog_timeout < 1:
            raise ValueError(f"watchdog_timeout must be >= 1, got {self.watchdog_timeout}")
        if self.watchdog_backoff < 1:
            raise ValueError(f"watchdog_backoff must be >= 1, got {self.watchdog_backoff}")
        if self.watchdog_max_backoff < 1:
            raise ValueError(f"watchdog_max_backoff must be >= 1, got {self.watchdog_max_backoff}")
        if self.deadlock_check_interval < 1:
            raise ValueError(
                f"deadlock_check_interval must be >= 1, got {self.deadlock_check_interval}"
            )
        if self.deadlock_patience < 1:
            raise ValueError(f"deadlock_patience must be >= 1, got {self.deadlock_patience}")
        if self.sync_mode not in ("distributed", "centralized"):
            raise ValueError(f"unknown sync_mode {self.sync_mode!r}")
        if self.coherency not in ("explicit", "snooping"):
            raise ValueError(f"unknown coherency {self.coherency!r}")
        from repro.obs.level import resolve_level

        resolve_level(self.obs_level)
        if self.sample_interval is not None:
            if self.sample_interval < 1:
                raise ValueError(
                    f"sample_interval must be >= 1, got {self.sample_interval}"
                )
            from repro.obs.level import ObservabilityLevel

            if not ObservabilityLevel.parse(self.obs_level).series:
                raise ValueError(
                    f"sample_interval={self.sample_interval} needs time series, "
                    f"but obs_level={self.obs_level!r} disables them "
                    "(use 'series' or 'full')"
                )

    def with_(self, **kw) -> "SystemParams":
        """Copy with overrides (sweep helper)."""
        return replace(self, **kw)

    def to_dict(self) -> dict:
        """JSON-ready form (run-report / RunSpec serialization)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SystemParams":
        return _from_flat_dict(cls, data)
