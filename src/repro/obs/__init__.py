"""repro.obs — the tiered observability contract.

Three pieces, one contract:

* :mod:`repro.obs.level` — how much a run records
  (``off``/``counters``/``series``/``full``), carried in
  :class:`repro.core.config.SystemParams` and consulted by the
  simulator; ``full`` is byte-identical to the pre-contract behaviour.
* :mod:`repro.obs.tracer` — span-based structured tracing with
  Chrome-trace/Perfetto export (``repro trace`` on the CLI).
* :mod:`repro.obs.metrics` — typed counters/gauges/histograms with
  stable names, aggregated by the runner and the resilience
  supervisor into canonical JSON metrics blocks.
* :mod:`repro.obs.spans` — the tracer's free-standing sibling for the
  layers above the simulator (runner/supervisor/sweep service):
  caller-driven spans on an injectable clock, same export format.

See ``docs/observability.md`` for the full contract.
"""

from repro.obs.level import LEVELS, ObservabilityLevel, resolve_level
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.obs.tracer import CHROME_TRACE_SCHEMA, SpanEvent, SpanTracer

__all__ = [
    "ObservabilityLevel",
    "LEVELS",
    "resolve_level",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanEvent",
    "SpanRecorder",
    "SpanTracer",
    "CHROME_TRACE_SCHEMA",
]
