"""One registry sees every tier: pipeline, streams, store, chaos."""

import random

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import MobilityPipeline
from repro.geo.bbox import BBox
from repro.model.reports import PositionReport
from repro.obs import DEFAULT_E2_BUDGETS, MetricsRegistry, SLOChecker
from repro.streams.chaos import RetryingOperator, TransientFaultInjector
from repro.streams.operators import CollectSink, MapOperator
from repro.streams.topology import StreamRunner, Topology

BBOX = BBox(-2.0, 49.0, 2.0, 52.0)


def make_reports(n=150, n_entities=5, seed=42):
    rng = random.Random(seed)
    return [
        PositionReport(
            entity_id=f"v{i % n_entities}",
            t=1000.0 + i * 10.0,
            lon=rng.uniform(-1.0, 1.0),
            lat=rng.uniform(50.0, 51.0),
            speed=rng.uniform(0.0, 10.0),
        )
        for i in range(n)
    ]


@pytest.fixture()
def run():
    metrics = MetricsRegistry(seed=1)
    pipeline = MobilityPipeline(
        BBOX, config=PipelineConfig(trace_every_n=10), metrics=metrics
    )
    result = pipeline.run(make_reports())
    return metrics, pipeline, result


class TestPipelineInstrumentation:
    def test_stage_histograms_cover_every_report(self, run):
        metrics, _, result = run
        # Clean sees every raw report; synopses every clean one; the
        # persistence/analytics stages run for each kept report.
        assert metrics.histogram("pipeline.clean").count == result.reports_in
        assert metrics.histogram("pipeline.synopses").count == result.reports_clean
        for stage in ("rdf", "events", "detectors"):
            assert metrics.histogram(f"pipeline.{stage}").count == result.reports_kept
        assert metrics.histogram("pipeline.end_to_end").count == result.reports_in

    def test_cross_tier_metrics_land_on_one_registry(self, run):
        metrics, _, result = run
        counters = metrics.counters()
        assert counters["insitu.synopses.seen"] == result.reports_clean
        assert counters["store.documents"] > 0
        assert counters["store.triples"] == result.triples_stored
        assert metrics.histogram("store.add_document").count > 0

    def test_sampled_trace_builds_record_trees(self, run):
        metrics, _, result = run
        roots = [s for s in metrics.tracer.roots() if s.name == "pipeline.record"]
        # Every 10th record is traced.
        assert len(roots) == result.reports_in // 10 + (1 if result.reports_in % 10 else 0)
        child_names = {s.name for s in metrics.tracer.children_of(roots[0].span_id)}
        assert "pipeline.clean" in child_names
        assert "pipeline.synopses" in child_names

    def test_result_carries_registry_snapshot(self, run):
        metrics, _, result = run
        assert result.metrics["counters"] == metrics.counters()
        assert result.as_dict()["kind"] == "pipeline"
        assert set(result.as_dict()) == {"kind", "summary", "metrics"}
        summary = result.summary()
        assert summary["reports_in"] == float(result.reports_in)
        assert "end_to_end_p99_ms" in summary

    def test_default_slo_budgets_hold_on_the_reference_run(self, run):
        metrics, _, _ = run
        SLOChecker(DEFAULT_E2_BUDGETS).assert_ok(metrics)

    def test_throughput_gauge_set(self, run):
        metrics, _, result = run
        assert metrics.gauges()["pipeline.throughput_rps"] == pytest.approx(
            result.throughput_rps
        )

    def test_records_rejected_at_clean_have_nonnegative_end_to_end(self):
        """Regression: a clean-stage reject closed its end-to-end sample
        against the *previous* record's end, so every replayed duplicate
        recorded a negative latency and shrank the end-to-end stage wall."""
        metrics = MetricsRegistry(seed=1)
        pipeline = MobilityPipeline(BBOX, metrics=metrics)
        reports = make_reports(n=200)
        for report in reports + reports[:50]:
            pipeline.process_report(report)
        assert pipeline.live_result.reports_clean <= 200  # >= 50 rejects
        buffered = pipeline._lat_buf["end_to_end"]
        assert len(buffered) == 250
        assert min(buffered) >= 0.0
        wall = pipeline.stage_wall_seconds()
        assert wall["end_to_end"] >= wall["clean"]
        pipeline.snapshot()  # lands the buffer on the histogram
        assert min(metrics.histogram("pipeline.end_to_end").samples) >= 0.0


class TestTracingModes:
    def test_tracing_disabled_by_zero_sampling(self):
        metrics = MetricsRegistry(seed=1)
        pipeline = MobilityPipeline(
            BBOX, config=PipelineConfig(trace_every_n=0), metrics=metrics
        )
        result = pipeline.run(make_reports(n=40))
        assert not any(s.name == "pipeline.record" for s in metrics.spans)
        # Histograms stay on regardless of span sampling.
        assert metrics.histogram("pipeline.end_to_end").count == result.reports_in

    def test_disabled_registry_records_nothing(self):
        metrics = MetricsRegistry(enabled=False)
        pipeline = MobilityPipeline(BBOX, metrics=metrics)
        result = pipeline.run(make_reports(n=40))
        assert result.reports_in == 40
        assert metrics.counters() == {}
        assert metrics.spans == ()
        assert result.metrics == {}

    def test_default_pipeline_is_instrumented(self):
        pipeline = MobilityPipeline(BBOX)
        result = pipeline.run(make_reports(n=30))
        assert pipeline.metrics.enabled
        assert result.metrics["counters"]["insitu.synopses.seen"] > 0


class TestCheckpointSharing:
    def test_snapshot_restore_preserves_registry_identity(self):
        metrics = MetricsRegistry(seed=1)
        pipeline = MobilityPipeline(BBOX, metrics=metrics)
        reports = make_reports(n=60)
        for r in reports[:30]:
            pipeline.process_report(r)
        state = pipeline.snapshot()
        for r in reports[30:]:
            pipeline.process_report(r)
        pipeline.restore(state)
        # The restored registry is one shared object again: the store and
        # executor must write into pipeline.metrics, not a detached copy.
        assert pipeline.store.metrics is pipeline.metrics
        assert pipeline.executor.metrics is pipeline.metrics
        assert pipeline.metrics.histogram("pipeline.end_to_end").count == 30


class TestStreamsInstrumentation:
    def test_runner_absorbs_operator_metrics(self):
        metrics = MetricsRegistry(seed=2)
        topo = Topology()
        head = topo.add_source_stage(MapOperator(lambda x: x * 2, name="double"))
        sink = CollectSink()
        topo.chain(head, sink)
        StreamRunner(topo, track_latency=True, metrics=metrics).run_values(
            [(float(i), i) for i in range(20)]
        )
        counters = metrics.counters()
        assert counters["streams.double.records_in"] == 20
        assert counters["streams.double.records_out"] == 20
        assert metrics.histogram("streams.double.latency").count == 20
        assert any(s.name == "streams.run" for s in metrics.spans)

    def test_chaos_counters(self):
        metrics = MetricsRegistry(seed=3)
        flaky = RetryingOperator(
            MapOperator(lambda x: x, name="inner"),
            injector=TransientFaultInjector(fail_prob=0.3, seed=13),
            name="flaky",
            metrics=metrics,
        )
        topo = Topology()
        head = topo.add_source_stage(flaky)
        topo.chain(head, CollectSink())
        StreamRunner(topo).run_values([(float(i), i) for i in range(200)])
        counters = metrics.counters()
        assert counters.get("chaos.flaky.failures", 0) > 0
        assert counters.get("chaos.flaky.recovered", 0) > 0
