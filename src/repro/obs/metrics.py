"""One metrics surface for every tier of the pipeline.

The paper's single quantitative requirement — online processing "must
comply with operational latency requirements (i.e. in ms)" — is only
checkable if every tier reports latency through the *same* instruments.
This module provides them:

- :class:`Counter` / :class:`Gauge` — monotone and settable scalars;
- :class:`LatencyHistogram` — bounded, *seeded* reservoir of latency
  samples with millisecond percentiles (reproducible run-to-run);
- :class:`MetricsRegistry` — the get-or-create home of all instruments,
  plus hierarchical :meth:`MetricsRegistry.span` tracing and a zero-cost
  disabled mode for overhead-sensitive paths.

Disabled registries hand out shared null instruments: recording is a
no-op method call, no samples are ever allocated, and ``span()`` returns
a reusable null context — so instrumented code needs no ``if`` guards.
"""

from __future__ import annotations

import random
import zlib
from typing import Iterator

import numpy as np

from repro.obs.clock import monotonic
from repro.obs.tracing import NULL_SPAN, Span, SpanRecord, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
]


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0

    def inc(self, n: int = 1) -> None:
        """Increase the counter by ``n`` (must be non-negative)."""
        if n < 0:
            raise ValueError("counters only increase")
        self._value += n

    @property
    def value(self) -> int:
        """Current count."""
        return self._value

    def merge(self, other: "Counter") -> None:
        """Add another counter's total into this one."""
        self._value += other.value


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self._value = float(value)

    def inc(self, delta: float = 1.0) -> None:
        """Move the gauge by ``delta`` (either sign)."""
        self._value += delta

    @property
    def value(self) -> float:
        """Current value."""
        return self._value


class LatencyHistogram:
    """Records individual latency samples and reports percentiles.

    Samples are kept in a bounded reservoir (uniformly thinned) so long
    benchmark runs do not grow memory without bound. Thinning uses an
    instance-owned seeded generator — never the global ``random`` module —
    so runs are reproducible regardless of what else draws randomness.
    """

    def __init__(self, max_samples: int = 100_000, seed: int = 2017) -> None:
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self._max = max_samples
        self._samples: list[float] = []
        self._seen = 0
        self._seed = seed
        self._rng = random.Random(seed)

    def record(self, latency_s: float) -> None:
        """Record one latency sample, in seconds."""
        self._seen += 1
        if len(self._samples) < self._max:
            self._samples.append(latency_s)
        else:
            # Reservoir sampling keeps the sample uniform over all records.
            j = self._rng.randrange(self._seen)
            if j < self._max:
                self._samples[j] = latency_s
        return None

    def record_many(self, samples: "list[float]") -> None:
        """Record a batch of samples (equivalent to repeated :meth:`record`).

        The batch path exists for hot loops that buffer latencies in a
        plain list and flush periodically — one method call per flush
        instead of one per sample.
        """
        if self._seen == len(self._samples) and self._seen + len(samples) <= self._max:
            self._samples.extend(samples)
            self._seen += len(samples)
            return
        for sample in samples:
            self.record(sample)

    @property
    def samples(self) -> tuple[float, ...]:
        """The retained reservoir samples (for tests and export)."""
        return tuple(self._samples)

    @property
    def count(self) -> int:
        """Total number of samples recorded (including thinned-out ones)."""
        return self._seen

    @property
    def max_samples(self) -> int:
        """Reservoir capacity."""
        return self._max

    @property
    def seed(self) -> int:
        """The seed the reservoir's thinning generator started from."""
        return self._seed

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's retained samples into this reservoir.

        Used to combine per-worker histograms after a parallel run. The
        merged percentiles are computed over the union of the two
        reservoirs (exact when neither reservoir overflowed); the total
        :attr:`count` reflects *all* samples either side ever recorded.
        Deterministic for fixed inputs — merging draws only from this
        histogram's own seeded generator.
        """
        retained = other.samples
        for sample in retained:
            self.record(sample)
        self._seen += other.count - len(retained)

    @classmethod
    def from_samples(
        cls,
        samples: list[float],
        count: int | None = None,
        max_samples: int = 100_000,
        seed: int = 2017,
    ) -> "LatencyHistogram":
        """Rebuild a histogram from exported reservoir samples.

        The reservoir is restored verbatim (no re-thinning), so the
        reloaded percentiles are identical to the exported ones.
        """
        hist = cls(max_samples=max(max_samples, len(samples), 1), seed=seed)
        hist._samples = [float(s) for s in samples]
        hist._seen = count if count is not None else len(samples)
        return hist

    def percentile_ms(self, q: float) -> float:
        """The ``q``-th percentile latency in milliseconds (q in [0, 100])."""
        if not self._samples:
            return 0.0
        return float(np.percentile(np.asarray(self._samples), q)) * 1000.0

    def mean_ms(self) -> float:
        """Mean latency in milliseconds."""
        if not self._samples:
            return 0.0
        return float(np.mean(np.asarray(self._samples))) * 1000.0

    def summary(self) -> dict[str, float]:
        """p50/p95/p99/mean in milliseconds plus the count."""
        return {
            "count": float(self.count),
            "mean_ms": self.mean_ms(),
            "p50_ms": self.percentile_ms(50),
            "p95_ms": self.percentile_ms(95),
            "p99_ms": self.percentile_ms(99),
        }


class _NullCounter(Counter):
    """Counter that ignores every increment (disabled-registry mode)."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        return None

    def merge(self, other: Counter) -> None:
        return None


class _NullGauge(Gauge):
    """Gauge that ignores every set (disabled-registry mode)."""

    __slots__ = ()

    def set(self, value: float) -> None:
        return None

    def inc(self, delta: float = 1.0) -> None:
        return None


class _NullHistogram(LatencyHistogram):
    """Histogram that drops every sample (disabled-registry mode).

    Never allocates sample storage beyond the (empty) list created at
    construction; a single shared instance serves a whole registry.
    """

    def record(self, latency_s: float) -> None:
        return None

    def record_many(self, samples: "list[float]") -> None:
        return None

    def merge(self, other: LatencyHistogram) -> None:
        return None


class _Timer:
    """Context manager recording its body's wall time into a histogram."""

    __slots__ = ("_hist", "_started")

    def __init__(self, hist: LatencyHistogram) -> None:
        self._hist = hist
        self._started = 0.0

    def __enter__(self) -> "_Timer":
        self._started = monotonic()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._hist.record(monotonic() - self._started)
        return False


class MetricsRegistry:
    """The single home of every instrument and trace in a process tier.

    Instruments are created on first use and cached by name (dotted
    names by convention: ``pipeline.clean``, ``store.add_document``).
    Histograms derive their reservoir seed from the registry seed and
    the metric name, so two registries built with the same seed produce
    identical reservoirs for the same sample streams — percentiles are
    comparable run-to-run.

    Args:
        seed: Base seed for all histogram reservoirs.
        max_samples: Reservoir capacity per histogram.
        max_spans: Trace-buffer capacity (completed spans beyond it are
            dropped and counted, never silently lost).
        enabled: ``False`` turns the registry into a zero-cost no-op:
            all instruments are shared null objects and spans are a
            reusable null context.
    """

    def __init__(
        self,
        seed: int = 2017,
        max_samples: int = 100_000,
        max_spans: int = 10_000,
        enabled: bool = True,
    ) -> None:
        self.seed = seed
        self.max_samples = max_samples
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, LatencyHistogram] = {}
        self.tracer = Tracer(max_spans=max_spans, enabled=enabled)
        self._null_counter = _NullCounter()
        self._null_gauge = _NullGauge()
        self._null_histogram = _NullHistogram(max_samples=1, seed=0)

    # -- instruments --------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        if not self.enabled:
            return self._null_counter
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        if not self.enabled:
            return self._null_gauge
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        return gauge

    def histogram(self, name: str) -> LatencyHistogram:
        """The latency histogram under ``name`` (created on first use)."""
        if not self.enabled:
            return self._null_histogram
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = LatencyHistogram(
                max_samples=self.max_samples, seed=self._derive_seed(name)
            )
        return hist

    def _derive_seed(self, name: str) -> int:
        return self.seed ^ zlib.crc32(name.encode("utf-8"))

    def timer(self, name: str) -> _Timer:
        """Context manager timing its body into ``histogram(name)``."""
        return _Timer(self.histogram(name))

    # -- tracing ------------------------------------------------------------

    def span(self, name: str, records: int = 0) -> Span:
        """Open a hierarchical tracing span (see :class:`~repro.obs.tracing.Tracer`).

        Use as a context manager; nesting within the same registry builds
        the parent/child tree one flamegraph renders. Disabled registries
        return a shared null span.
        """
        return self.tracer.span(name, records=records)

    @property
    def spans(self) -> tuple[SpanRecord, ...]:
        """All completed spans, in completion order."""
        return self.tracer.spans

    # -- aggregation --------------------------------------------------------

    def merge(self, other: "MetricsRegistry", prefix: str = "") -> None:
        """Fold another registry (e.g. a parallel worker's) into this one.

        Counters add, gauges take the other side's latest value, and
        histograms merge reservoirs (see :meth:`LatencyHistogram.merge`).
        ``prefix`` namespaces the incoming metrics (``prefix + name``).
        """
        if not self.enabled or not other.enabled:
            return
        for name, counter in other._counters.items():
            self.counter(prefix + name).merge(counter)
        for name, gauge in other._gauges.items():
            self.gauge(prefix + name).set(gauge.value)
        for name, hist in other._histograms.items():
            self.histogram(prefix + name).merge(hist)

    # -- introspection ------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """All counter values by name."""
        return {name: c.value for name, c in sorted(self._counters.items())}

    def gauges(self) -> dict[str, float]:
        """All gauge values by name."""
        return {name: g.value for name, g in sorted(self._gauges.items())}

    def histogram_names(self) -> Iterator[str]:
        """Registered histogram names, sorted."""
        yield from sorted(self._histograms)

    def histogram_summaries(self) -> dict[str, dict[str, float]]:
        """Percentile summaries of every histogram, by name."""
        return {name: self._histograms[name].summary() for name in sorted(self._histograms)}

    def as_dict(self) -> dict:
        """A plain-data snapshot of the whole registry.

        The common observability schema carried by
        :class:`repro.core.pipeline.PipelineResult` and
        :class:`repro.query.executor.ExecutionReport`.
        """
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": self.histogram_summaries(),
            "trace": {
                "spans": len(self.tracer.spans),
                "spans_dropped": self.tracer.dropped,
            },
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Alias of :meth:`histogram_summaries` (the latency view)."""
        return self.histogram_summaries()

    def reset(self) -> None:
        """Drop every instrument and trace."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self.tracer.reset()


#: A shared disabled registry for callers that opt out of observability.
NULL_REGISTRY = MetricsRegistry(enabled=False)
