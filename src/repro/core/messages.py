"""Inter-shell synchronization messages (paper Figure 7).

"When the shell of coprocessor A receives a PutSpace request, it
locally decrements its space field ... and sends a 'putspace' message
to the shell of coprocessor B.  This remote shell ... increments its
space field upon reception."

The fabric delivers messages after a fixed latency.  Delivery order
between a fixed (source, destination) pair is FIFO — constant latency
plus the kernel's deterministic tie-breaking guarantee it — which is
what makes flush-before-putspace ordering (coherency rule 3) and
eos-after-final-putspace sound.

Robustness: every message the shells emit carries the sender's
*cumulative* stream position (a monotone absolute value) in addition
to the classic delta.  Receivers apply the max of what they knew and
what the message claims (see :meth:`repro.core.stream_table.StreamRow.
apply_credit`), which makes delivery idempotent — duplicates and
stale reorderings are no-ops, and any later message (including a
watchdog retry) heals an earlier drop.  A :class:`~repro.sim.faults.
FaultInjector` can be attached to the fabric to exercise exactly
those failure modes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.sim import Event, FaultInjector, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.shell import Shell

__all__ = ["PutSpaceMsg", "EosMsg", "MessageFabric"]


@dataclass(frozen=True)
class PutSpaceMsg:
    """Space increment for the remote access point.

    ``row_id``/``arm`` address the destination shell's stream-table row
    (and, for producer rows, which consumer arm's room to credit).

    ``cumulative`` is the sender's absolute committed position after
    this commit.  When present, the receiver credits the *difference*
    between it and its own accounting instead of trusting ``n_bytes``
    — the idempotent/monotonic application that makes drops,
    duplicates and reordering survivable.  ``None`` keeps the legacy
    pure-delta semantics (used by low-level unit tests).

    ``retry`` marks watchdog re-sends so receivers can count actual
    recoveries (a retry whose credit lands is a healed loss).
    """

    row_id: int
    arm: int
    n_bytes: int
    cumulative: Optional[int] = None
    retry: bool = False


@dataclass(frozen=True)
class EosMsg:
    """The producing task finished; no more data will ever arrive.

    ``final_position`` is the producer's total committed byte count.
    Carrying it makes end-of-stream robust against message reordering:
    the consumer only treats the stream as exhausted once its local
    accounting (`position + space`) has caught up with the final
    position, so an EOS that overtakes in-flight putspace messages can
    never cause data loss.  Setting an absolute position is also
    naturally idempotent, so duplicated (or watchdog re-sent) EOS
    messages are harmless.
    """

    row_id: int
    arm: int = 0
    final_position: int = 0
    retry: bool = False


class MessageFabric:
    """Message delivery between shells: fixed latency, plus optional
    seeded jitter and an optional fault injector.

    With ``jitter=0`` and no injector (the hardware model) delivery
    order between a fixed (source, destination) pair is FIFO.  With
    jitter, putspace messages may overtake each other — which is safe,
    because space increments commute and EOS finality is position-based
    (see :class:`EosMsg`).  With an injector, messages may additionally
    be dropped or duplicated; the cumulative-credit protocol plus the
    shell watchdog keep that survivable too."""

    def __init__(
        self,
        sim: Simulator,
        latency: int = 4,
        jitter: int = 0,
        seed: int = 0,
        injector: Optional[FaultInjector] = None,
    ):
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self.sim = sim
        self.latency = latency
        self.jitter = jitter
        self.injector = injector
        self._rng = __import__("random").Random(seed)
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_signalled = 0
        self._next_send_id = 0
        #: send id -> (due cycle, destination shell name, message); the
        #: JSON-safe view is rendered only when read (:meth:`inflight`)
        self._inflight: Dict[int, Tuple[int, str, Any]] = {}

    def send(self, dest: "Shell", msg) -> None:
        """Schedule delivery of ``msg`` to ``dest`` (possibly dropped,
        duplicated or delayed by the attached fault injector)."""
        self.messages_sent += 1
        if isinstance(msg, PutSpaceMsg):
            self.bytes_signalled += msg.n_bytes
        delay = self.latency
        if self.jitter:
            delay += self._rng.randrange(self.jitter + 1)
        if self.injector is not None:
            extra_delays = self.injector.plan_message(msg)
            if not extra_delays:
                self.messages_dropped += 1
                return
        else:
            extra_delays = (0,)
        sim = self.sim
        inflight = self._inflight
        for extra in extra_delays:
            self._next_send_id += 1
            send_id = self._next_send_id
            inflight[send_id] = (sim.now + delay + extra, dest.name, msg)
            ev = Event(sim)
            ev.callbacks.append(
                lambda _ev, m=msg, i=send_id: self._deliver(dest, m, i)
            )
            ev.succeed(None, delay=delay + extra)

    def _deliver(self, dest: "Shell", msg, send_id: Optional[int] = None) -> None:
        if send_id is not None:
            self._inflight.pop(send_id, None)
        self.messages_delivered += 1
        dest.deliver(msg)

    def inflight(self) -> List[Dict[str, Any]]:
        """Messages sent but not yet delivered, in send order."""
        return [
            {
                "due": due,
                "dest": dest_name,
                "kind": type(msg).__name__,
                "fields": asdict(msg),
                "send_id": send_id,
            }
            for send_id, (due, dest_name, msg) in sorted(self._inflight.items())
        ]

    def export_state(self) -> Dict[str, Any]:
        """JSON-safe view of fabric state for snapshots and monitors."""
        return {
            "latency": self.latency,
            "jitter": self.jitter,
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "bytes_signalled": self.bytes_signalled,
            "inflight": self.inflight(),
        }
