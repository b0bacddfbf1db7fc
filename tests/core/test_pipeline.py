"""End-to-end pipeline behaviour."""

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import MobilityPipeline
from repro.insitu.synopses import SynopsesConfig
from repro.model.points import Domain


@pytest.fixture(scope="module")
def pipeline_run(maritime_sample_module):
    sample = maritime_sample_module
    pipeline = MobilityPipeline(
        bbox=sample.world.bbox,
        registry=sample.registry,
        zones=sample.world.zones,
    )
    result = pipeline.run(sample.reports)
    return (pipeline, result, sample)


@pytest.fixture(scope="module")
def maritime_sample_module():
    from repro.sources.generators import MaritimeTrafficGenerator

    return MaritimeTrafficGenerator(seed=42).generate(n_vessels=6, max_duration_s=3600.0)


class TestCounters:
    def test_every_report_accounted(self, pipeline_run):
        __, result, sample = pipeline_run
        assert result.reports_in == len(sample.reports)
        assert result.reports_clean == result.reports_in  # generator is clean
        assert 0 < result.reports_kept < result.reports_clean

    def test_compression_substantial(self, pipeline_run):
        __, result, __s = pipeline_run
        assert result.compression_ratio > 0.5

    def test_triples_stored(self, pipeline_run):
        pipeline, result, __ = pipeline_run
        assert result.triples_stored > 0
        # Store also contains entity + zone documents loaded up front.
        assert len(pipeline.store) >= result.triples_stored

    def test_latency_summaries_present(self, pipeline_run):
        __, result, __s = pipeline_run
        assert set(result.stage_latency) == {"clean", "synopses", "rdf", "events", "detectors"}
        assert result.end_to_end["count"] == result.reports_in
        assert result.end_to_end["p95_ms"] > 0.0

    def test_throughput_positive(self, pipeline_run):
        __, result, __s = pipeline_run
        assert result.throughput_rps > 100.0


class TestStoredData:
    def test_trajectory_queryable(self, pipeline_run):
        pipeline, __, sample = pipeline_run
        entity_id = next(iter(sample.truth))
        trajectory = pipeline.executor.entity_trajectory(entity_id)
        assert len(trajectory) >= 2
        truth = sample.truth[entity_id]
        assert trajectory.start_time >= truth.start_time - 1.0
        assert trajectory.end_time <= truth.end_time + 1.0

    def test_synopsis_close_to_truth(self, pipeline_run):
        from repro.geo.geodesy import haversine_m

        pipeline, __, sample = pipeline_run
        entity_id = next(iter(sample.truth))
        stored = pipeline.executor.entity_trajectory(entity_id)
        truth = sample.truth[entity_id]
        mid = (stored.start_time + stored.end_time) / 2.0
        a = stored.at_time(mid)
        b = truth.at_time(mid)
        assert haversine_m(a.lon, a.lat, b.lon, b.lat) < 500.0


class TestConfigVariants:
    def test_rdf_disabled(self, maritime_sample_module):
        sample = maritime_sample_module
        pipeline = MobilityPipeline(
            bbox=sample.world.bbox,
            config=PipelineConfig(persist_rdf=False),
            registry=sample.registry,
        )
        result = pipeline.run(sample.reports[:500])
        assert result.triples_stored == 0
        assert len(pipeline.store) == 0

    def test_raw_persistence_stores_more(self, maritime_sample_module):
        sample = maritime_sample_module
        reports = sample.reports[:800]

        def run(persist_raw):
            pipeline = MobilityPipeline(
                bbox=sample.world.bbox,
                config=PipelineConfig(persist_raw_reports=persist_raw),
                registry=sample.registry,
            )
            return pipeline.run(list(reports)).triples_stored

        assert run(True) > run(False)

    @pytest.mark.parametrize("partitioner", ["hash", "grid", "hilbert"])
    def test_all_partitioners_work(self, maritime_sample_module, partitioner):
        sample = maritime_sample_module
        pipeline = MobilityPipeline(
            bbox=sample.world.bbox,
            config=PipelineConfig(partitioner=partitioner, n_partitions=4),
            registry=sample.registry,
        )
        result = pipeline.run(sample.reports[:400])
        assert result.triples_stored > 0

    def test_invalid_partitioner_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(partitioner="mystery")

    @pytest.mark.parametrize("field", ["capacity_window_s", "hotspot_window_s"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_detector_window_must_be_finite_and_positive(self, field, value):
        # Accepted, a NaN window would crash the first aviation record on
        # int(NaN) and an inf one would stamp window starts with NaN.
        with pytest.raises(ValueError, match=field):
            PipelineConfig(**{field: value})

    @pytest.mark.parametrize("limit", [0, -3])
    def test_capacity_limit_must_be_at_least_one(self, limit):
        with pytest.raises(ValueError, match="capacity_limit"):
            PipelineConfig(capacity_limit=limit)

    def test_synopses_threshold_controls_storage(self, maritime_sample_module):
        sample = maritime_sample_module

        def kept(threshold):
            pipeline = MobilityPipeline(
                bbox=sample.world.bbox,
                config=PipelineConfig(
                    synopses=SynopsesConfig(dr_error_threshold_m=threshold)
                ),
                registry=sample.registry,
            )
            return pipeline.run(list(sample.reports)).reports_kept

        assert kept(30.0) > kept(500.0)


class TestAdaptiveSynopses:
    def test_keep_rate_target_respected(self, maritime_sample_module):
        sample = maritime_sample_module
        target = 0.15
        pipeline = MobilityPipeline(
            bbox=sample.world.bbox,
            config=PipelineConfig(adaptive_keep_rate=target),
            registry=sample.registry,
        )
        result = pipeline.run(list(sample.reports))
        achieved = result.reports_kept / result.reports_clean
        # The controller needs a few adjustment periods to converge; the
        # whole-run average still lands near the target.
        assert achieved == pytest.approx(target, abs=0.1)

    def test_adaptive_and_fixed_both_answer_queries(self, maritime_sample_module):
        sample = maritime_sample_module
        pipeline = MobilityPipeline(
            bbox=sample.world.bbox,
            config=PipelineConfig(adaptive_keep_rate=0.1),
            registry=sample.registry,
        )
        pipeline.run(list(sample.reports))
        entity_id = next(iter(sample.truth))
        assert len(pipeline.executor.entity_trajectory(entity_id)) >= 2


class TestStreamingHotspots:
    def test_hotspot_stage_optional(self, maritime_sample_module):
        sample = maritime_sample_module
        off = MobilityPipeline(bbox=sample.world.bbox)
        off_result = off.run(list(sample.reports))
        assert not [e for e in off_result.complex_events if e.event_type == "hotspot"]

    def test_hotspot_events_emitted_when_enabled(self):
        from repro.sources.generators import MaritimeTrafficGenerator

        sample = MaritimeTrafficGenerator(seed=8).generate(
            n_vessels=15, max_duration_s=3600.0
        )
        pipeline = MobilityPipeline(
            bbox=sample.world.bbox,
            config=PipelineConfig(hotspots=True, hotspot_z_threshold=2.0),
            registry=sample.registry,
        )
        result = pipeline.run(sample.reports)
        hotspots = [e for e in result.complex_events if e.event_type == "hotspot"]
        assert hotspots
        assert all(e.attributes["entity_count"] >= 3 for e in hotspots)


class TestAviationPipeline:
    def test_capacity_detector_active(self):
        from repro.sources.generators import AviationTrafficGenerator

        sample = AviationTrafficGenerator(seed=3).generate(n_flights=8)
        pipeline = MobilityPipeline(
            bbox=sample.world.bbox,
            config=PipelineConfig(capacity_limit=2, capacity_window_s=1800.0),
            registry=sample.registry,
            zones=sample.world.sectors,
            domain=Domain.AVIATION,
        )
        result = pipeline.run(sample.reports)
        overloads = [
            e for e in result.complex_events if e.event_type == "capacity_overload"
        ]
        assert overloads  # 8 flights over sectors with capacity 2
