"""Unified observability: one metrics registry, tracing spans, SLO gates.

Every tier of the reproduction — streams, pipeline, query, store,
in-situ, CEP — reports through this package, so one trace and one
registry cover ingest → synopsis → RDF → store → query end-to-end:

- :class:`MetricsRegistry` — get-or-create counters, gauges and seeded
  latency histograms; hierarchical :meth:`MetricsRegistry.span` tracing;
  a zero-cost disabled mode (:data:`NULL_REGISTRY`).
- Exporters — :class:`JsonLinesExporter` (durable, reload-identical),
  :class:`PrometheusTextExporter`, :class:`InMemoryExporter`.
- :class:`SLOChecker` — millisecond p50/p95/p99 budgets per operator and
  end-to-end, the executable form of the paper's "latency in ms"
  requirement (experiment E2).
"""

from repro.obs.export import InMemoryExporter, JsonLinesExporter, PrometheusTextExporter
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    OperatorMetrics,
)
from repro.obs.slo import (
    DEFAULT_E2_BUDGETS,
    DEFAULT_SERVING_BUDGETS,
    SLOBudget,
    SLOChecker,
    SLOViolation,
    SLOViolationError,
)
from repro.obs.tracing import NULL_SPAN, Span, SpanRecord, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "OperatorMetrics",
    "Span",
    "SpanRecord",
    "Tracer",
    "NULL_SPAN",
    "InMemoryExporter",
    "JsonLinesExporter",
    "PrometheusTextExporter",
    "SLOBudget",
    "SLOChecker",
    "SLOViolation",
    "SLOViolationError",
    "DEFAULT_E2_BUDGETS",
    "DEFAULT_SERVING_BUDGETS",
]
