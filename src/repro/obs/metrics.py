"""Typed metrics with stable names and a canonical JSON form.

The sweep/service layers (``repro.runner`` and the sweep service in
``repro.service``) need a progress/health feed that is *deterministic*
wherever the existing byte-compare CI checks look: a ``RunReport``
must stay byte-identical across ``--jobs`` counts and
checkpointed-vs-plain runs.
So this registry is strict about two things:

* **Stable names.**  A metric's identity is its dotted name
  (``runs.crashed``, ``run.wall_time``); :meth:`MetricsRegistry.to_dict`
  emits them sorted, so the canonical JSON never depends on
  registration order.
* **No wall-clock inside.**  Nothing here reads a clock.  Values are
  recorded by the caller; timing-derived metrics belong behind the
  same ``include_timing`` switch the runner already has.

Three instrument types, mirroring the usual OpenMetrics trio:

:class:`Counter`   monotone event count (``inc``).
:class:`Gauge`     last-written value (``set``), e.g. a queue depth.
:class:`Histogram` full distribution summary (``observe``) — count,
                   sum, min, max, mean — without storing samples, so a
                   million-run sweep costs O(1) memory per metric.

The module has zero repro imports so every layer can use it freely.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

Number = Union[int, float]


class Counter:
    """A monotonically increasing event count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: int = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A value that goes up and down; reads back the last ``set``."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """A distribution summary: count/sum/min/max/mean, O(1) memory.

    ``round_to`` rounds the exported sum/min/max/mean (used for
    wall-time metrics so the canonical JSON does not carry 17
    significant digits of noise).
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "", round_to: Optional[int] = None) -> None:
        self.name = name
        self.help = help
        self.round_to = round_to
        self.count: int = 0
        self.sum: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Number) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def _round(self, value: Optional[float]) -> Optional[float]:
        if value is None or self.round_to is None:
            return value
        return round(value, self.round_to)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "sum": self._round(self.sum) or 0.0 if self.count else 0.0,
            "min": self._round(self.min),
            "max": self._round(self.max),
            "mean": self._round(self.mean),
        }


class MetricsRegistry:
    """A named set of instruments with a canonical, sorted dict form.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call defines the instrument, later calls return the same object
    (and reject a kind change — a name means one thing, forever).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Union[Counter, Gauge, Histogram]] = {}

    def _get_or_create(self, cls, name: str, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"not {cls.kind}"
                )
            return existing
        metric = cls(name, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help=help)

    def histogram(self, name: str, help: str = "",
                  round_to: Optional[int] = None) -> Histogram:
        return self._get_or_create(Histogram, name, help=help, round_to=round_to)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def to_dict(self) -> dict:
        """Canonical form: ``{name: {kind, ...values}}``, names sorted."""
        return {name: self._metrics[name].to_dict() for name in self.names()}
