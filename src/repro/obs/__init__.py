"""repro.obs — the tiered observability contract.

Four pieces, one contract:

* :mod:`repro.obs.level` — how much a run records
  (``off``/``counters``/``series``/``full``), carried in
  :class:`repro.core.config.SystemParams` and consulted by the
  simulator; ``full`` is byte-identical to the pre-contract behaviour.
* :mod:`repro.obs.spans` — the one span recorder: events, a bounded
  ring that counts its drops, and the Chrome-trace/Perfetto export and
  schema, on a clock fixed at construction (wall-clock microseconds
  for the runner and the sweep service by default).
* :mod:`repro.obs.tracer` — the recorder on a configured system's
  cycle clock, wrapping its coprocessors, buses and fault hooks
  (``repro trace`` on the CLI).
* :mod:`repro.obs.metrics` — typed counters/gauges/histograms with
  stable names, aggregated by the runner and the sweep service into
  canonical JSON metrics blocks.

See ``docs/observability.md`` for the full contract.
"""

from repro.obs.level import LEVELS, ObservabilityLevel, resolve_level
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.spans import CHROME_TRACE_SCHEMA, SpanEvent, SpanRecorder
from repro.obs.tracer import SpanTracer

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
