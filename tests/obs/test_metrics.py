"""The unified metrics registry: instruments, merging, disabled mode."""

import random

import pytest

from repro.obs import (
    NULL_REGISTRY,
    NULL_SPAN,
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    OperatorMetrics,
)


class TestCounter:
    def test_increments(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_merge_adds(self):
        a, b = Counter(), Counter()
        a.inc(3)
        b.inc(7)
        a.merge(b)
        assert a.value == 10


class TestGauge:
    def test_set_and_inc(self):
        g = Gauge()
        g.set(2.5)
        g.inc(-0.5)
        assert g.value == 2.0


class TestLatencyHistogram:
    def test_percentiles(self):
        h = LatencyHistogram()
        for i in range(1, 101):
            h.record(i / 1000.0)  # 1..100 ms
        assert h.count == 100
        assert h.percentile_ms(50) == pytest.approx(50.5)
        assert h.percentile_ms(99) == pytest.approx(99.01)
        assert h.mean_ms() == pytest.approx(50.5)

    def test_empty_percentile_is_zero(self):
        assert LatencyHistogram().percentile_ms(99) == 0.0

    def test_reservoir_bounds_memory_and_counts_all(self):
        h = LatencyHistogram(max_samples=50, seed=1)
        for i in range(1000):
            h.record(i / 1000.0)
        assert len(h.samples) == 50
        assert h.count == 1000

    def test_reservoir_is_seed_deterministic(self):
        def run(seed):
            h = LatencyHistogram(max_samples=32, seed=seed)
            for i in range(500):
                h.record(i * 1e-4)
            return h.samples

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_thinning_is_independent_of_global_rng(self):
        """Regression: reservoir thinning must not touch the global RNG.

        Long benchmark runs previously drew from the unseeded ``random``
        module, so percentiles differed run to run.
        """

        def run(global_seed):
            h = LatencyHistogram(max_samples=100)
            random.seed(global_seed)
            for i in range(5000):
                h.record((i % 37) * 1e-4)
            return h.samples, [random.random() for __ in range(5)]

        random.seed(1)
        untouched = [random.random() for __ in range(5)]
        samples_a, draws_a = run(1)
        samples_b, __ = run(99999)
        assert samples_a == samples_b
        assert draws_a == untouched  # 4900 thinning draws left it alone

    def test_below_capacity_keeps_everything(self):
        h = LatencyHistogram(max_samples=100)
        for i in range(30):
            h.record((i % 37) * 1e-4)
        assert len(h.samples) == 30
        assert h.percentile_ms(100) == max(h.samples) * 1000.0

    def test_merge_unions_samples_and_counts(self):
        a = LatencyHistogram(seed=1)
        b = LatencyHistogram(seed=2)
        for i in range(10):
            a.record(0.001)
            b.record(0.003)
        a.merge(b)
        assert a.count == 20
        assert sorted(a.samples) == [0.001] * 10 + [0.003] * 10
        assert a.percentile_ms(50) == pytest.approx(2.0)

    def test_merge_preserves_total_count_past_reservoir(self):
        a = LatencyHistogram(max_samples=16, seed=1)
        b = LatencyHistogram(max_samples=16, seed=2)
        for i in range(100):
            b.record(i * 1e-4)
        a.merge(b)
        # b retained 16 samples but saw 100; the merged count keeps all.
        assert a.count == 100
        assert len(a.samples) == 16

    def test_from_samples_restores_reservoir_verbatim(self):
        h = LatencyHistogram(max_samples=8, seed=3)
        for i in range(50):
            h.record(i * 1e-3)
        clone = LatencyHistogram.from_samples(
            list(h.samples), count=h.count, max_samples=h.max_samples, seed=h.seed
        )
        assert clone.samples == h.samples
        assert clone.count == h.count
        for q in (50, 95, 99):
            assert clone.percentile_ms(q) == h.percentile_ms(q)


class TestRegistry:
    def test_get_or_create_caches_by_name(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.gauge("g") is r.gauge("g")
        assert r.histogram("h") is r.histogram("h")
        assert r.counter("a") is not r.counter("b")

    def test_histogram_seeds_derive_from_registry_seed_and_name(self):
        r1 = MetricsRegistry(seed=42)
        r2 = MetricsRegistry(seed=42)
        assert r1.histogram("x").seed == r2.histogram("x").seed
        assert r1.histogram("x").seed != r1.histogram("y").seed

    def test_same_seed_registries_build_identical_reservoirs(self):
        def run():
            r = MetricsRegistry(seed=9, max_samples=32)
            h = r.histogram("pipeline.clean")
            for i in range(500):
                h.record(i * 1e-4)
            return h.samples

        assert run() == run()

    def test_timer_records_into_histogram(self):
        r = MetricsRegistry()
        with r.timer("op"):
            pass
        assert r.histogram("op").count == 1

    def test_absorb_operator(self):
        r = MetricsRegistry()
        op = OperatorMetrics("clean")
        op.records_in.inc(10)
        op.records_out.inc(8)
        op.processing_latency.record(0.002)
        r.absorb_operator(op)
        assert r.counters()["streams.clean.records_in"] == 10
        assert r.counters()["streams.clean.records_out"] == 8
        assert r.histogram("streams.clean.latency").count == 1

    def test_as_dict_shape(self):
        r = MetricsRegistry()
        r.counter("c").inc()
        r.gauge("g").set(1.0)
        r.histogram("h").record(0.001)
        with r.span("s"):
            pass
        snap = r.as_dict()
        assert set(snap) == {"counters", "gauges", "histograms", "trace"}
        assert snap["counters"] == {"c": 1}
        assert snap["gauges"] == {"g": 1.0}
        assert set(snap["histograms"]["h"]) == {
            "count", "mean_ms", "p50_ms", "p95_ms", "p99_ms"
        }
        assert snap["trace"] == {"spans": 1, "spans_dropped": 0}

    def test_reset(self):
        r = MetricsRegistry()
        r.counter("c").inc()
        with r.span("s"):
            pass
        r.reset()
        assert r.counters() == {}
        assert r.spans == ()


class TestRegistryMerge:
    """Folding parallel-worker registries into one (the E4 shape)."""

    def _worker(self, seed, latency_s, n):
        w = MetricsRegistry(seed=seed)
        w.counter("docs").inc(n)
        w.gauge("rate").set(float(seed))
        h = w.histogram("insert")
        for _ in range(n):
            h.record(latency_s)
        return w

    def test_counters_add_and_histograms_union(self):
        main = MetricsRegistry(seed=0)
        w1 = self._worker(1, 0.001, 50)
        w2 = self._worker(2, 0.003, 50)
        main.merge(w1)
        main.merge(w2)
        assert main.counters()["docs"] == 100
        assert main.histogram("insert").count == 100
        assert main.histogram("insert").percentile_ms(50) == pytest.approx(2.0)

    def test_gauges_take_latest(self):
        main = MetricsRegistry()
        main.merge(self._worker(1, 0.001, 1))
        main.merge(self._worker(2, 0.001, 1))
        assert main.gauges()["rate"] == 2.0

    def test_prefix_namespaces_incoming(self):
        main = MetricsRegistry()
        main.merge(self._worker(1, 0.001, 5), prefix="worker1.")
        assert main.counters() == {"worker1.docs": 5}
        assert list(main.histogram_names()) == ["worker1.insert"]

    def test_merge_is_deterministic(self):
        def combined():
            main = MetricsRegistry(seed=0, max_samples=16)
            for s in (1, 2, 3):
                main.merge(self._worker(s, s * 0.001, 40))
            return main.histogram("insert").samples

        assert combined() == combined()


class TestDisabledRegistry:
    def test_null_instruments_are_shared_and_inert(self):
        r = MetricsRegistry(enabled=False)
        assert r.counter("a") is r.counter("b")
        assert r.histogram("x") is r.histogram("y")
        r.counter("a").inc(5)
        r.gauge("g").set(9.0)
        assert r.counters() == {}
        assert r.gauges() == {}

    def test_no_samples_ever_allocated(self):
        r = MetricsRegistry(enabled=False)
        h = r.histogram("hot.path")
        for _ in range(10_000):
            h.record(0.001)
        assert h.samples == ()
        assert h.count == 0

    def test_span_is_shared_null_context(self):
        r = MetricsRegistry(enabled=False)
        span = r.span("x")
        assert span is NULL_SPAN
        with span as s:
            s.add_records(3)
        assert r.spans == ()

    def test_null_registry_singleton_disabled(self):
        assert NULL_REGISTRY.enabled is False
        assert NULL_REGISTRY.as_dict()["counters"] == {}

    def test_merge_into_disabled_is_noop(self):
        src = MetricsRegistry()
        src.counter("c").inc()
        r = MetricsRegistry(enabled=False)
        r.merge(src)
        assert r.counters() == {}
