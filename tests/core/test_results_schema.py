"""The :class:`repro.core.results.ResultSchema` contract and its envelope.

Three run-report classes implement the protocol — PipelineResult,
ExecutionReport, RuntimeResult — and the versioned document round-trips
through JSON with its content digest verified on the way back in.
"""

import json

import pytest

from repro.cep.simple import ProximityRun, SimpleEventExtractor
from repro.core.pipeline import MobilityPipeline, PipelineResult
from repro.core.results import (
    RESULT_SCHEMA_VERSION,
    ResultSchema,
    canonical_bytes,
    digest_of,
    load_result_document,
    result_document,
)
from repro.model.events import SimpleEvent
from repro.model.reports import PositionReport
from repro.query.executor import ExecutionReport
from repro.runtime.merge import ResultMerger, RuntimeResult, ShardOutcome
from repro.sources.generators import MaritimeTrafficGenerator


@pytest.fixture(scope="module")
def pipeline_result():
    sample = MaritimeTrafficGenerator(seed=42).generate(
        n_vessels=3, max_duration_s=900.0
    )
    pipeline = MobilityPipeline(
        bbox=sample.world.bbox,
        registry=sample.registry,
        zones=sample.world.zones,
    )
    return pipeline.run(sample.reports)


@pytest.fixture(scope="module")
def runtime_result(pipeline_result):
    merger = ResultMerger()
    return merger.merge(
        [ShardOutcome(shard_id=0, result=pipeline_result)],
        n_workers=1,
        wall_time_s=1.0,
    )


class TestProtocolConformance:
    def test_pipeline_result_implements_schema(self, pipeline_result):
        assert isinstance(pipeline_result, ResultSchema)

    def test_execution_report_implements_schema(self):
        assert isinstance(ExecutionReport(), ResultSchema)

    def test_runtime_result_implements_schema(self, runtime_result):
        assert isinstance(runtime_result, ResultSchema)

    def test_empty_result_is_not_mistaken_for_schema(self):
        assert not isinstance(object(), ResultSchema)


class TestDeterministicDigest:
    def test_digest_matches_canonical_encoding(self, pipeline_result):
        assert pipeline_result.deterministic_bytes() == canonical_bytes(
            pipeline_result.deterministic_payload()
        )
        assert pipeline_result.deterministic_digest() == digest_of(
            pipeline_result.deterministic_payload()
        )

    def test_execution_report_digest_ignores_timing(self):
        fast = ExecutionReport(n_results=5, partitions_total=4, total_s=0.001)
        slow = ExecutionReport(n_results=5, partitions_total=4, total_s=9.999)
        assert fast.deterministic_digest() == slow.deterministic_digest()

    def test_execution_report_digest_sees_content(self):
        a = ExecutionReport(n_results=5)
        b = ExecutionReport(n_results=6)
        assert a.deterministic_digest() != b.deterministic_digest()

    def test_pipeline_result_digest_ignores_wall_time(self, pipeline_result):
        digest = pipeline_result.deterministic_digest()
        pipeline_result.wall_time_s += 100.0
        assert pipeline_result.deterministic_digest() == digest

    def test_runtime_digest_tracks_shard_payloads(self, pipeline_result):
        one = RuntimeResult(
            n_workers=2, shards=[ShardOutcome(shard_id=0, result=pipeline_result)]
        )
        two = RuntimeResult(
            n_workers=2,
            shards=[
                ShardOutcome(shard_id=0, result=pipeline_result),
                ShardOutcome(shard_id=1, result=PipelineResult()),
            ],
        )
        assert one.deterministic_digest() != two.deterministic_digest()


class TestRuntimeSummary:
    def test_simple_events_counted_without_building_them(self, monkeypatch):
        calls = []
        build = SimpleEventExtractor._proximity_event

        def counting(report, other, distance):
            calls.append(1)
            return build(report, other, distance)

        monkeypatch.setattr(SimpleEventExtractor, "_proximity_event", staticmethod(counting))
        a, b = PositionReport("A", 0.0, 24.0, 37.0), PositionReport("B", 0.0, 24.01, 37.0)
        shards = []
        for shard_id, n_pairs in enumerate((3, 4)):
            result = PipelineResult()
            result.simple_events.append_run(ProximityRun([a] * n_pairs, [b] * n_pairs))
            result.simple_events.extend([SimpleEvent("stop_begin", "A", 1.0, 24.0, 37.0)])
            shards.append(ShardOutcome(shard_id=shard_id, result=result))
        merged = RuntimeResult(n_workers=2, shards=shards)
        assert merged.summary()["simple_events"] == 9.0
        assert calls == []
        # The merged list is still there for callers that want the events.
        assert len(merged.simple_events) == 9 and len(calls) == 7


class TestResultDocument:
    @pytest.mark.parametrize("kind", ["pipeline", "query", "runtime"])
    def test_round_trip(self, kind, pipeline_result, runtime_result):
        source = {
            "pipeline": pipeline_result,
            "query": ExecutionReport(n_results=3, partitions_total=2),
            "runtime": runtime_result,
        }[kind]
        doc = result_document(source)
        loaded = load_result_document(json.dumps(doc))
        assert loaded["kind"] == kind
        assert loaded["schema_version"] == RESULT_SCHEMA_VERSION
        assert loaded["digest"] == source.deterministic_digest()
        assert loaded["summary"] == pytest.approx(source.summary())

    def test_tampered_payload_rejected(self, pipeline_result):
        doc = result_document(pipeline_result)
        doc["deterministic"]["reports_in"] += 1
        with pytest.raises(ValueError, match="digest mismatch"):
            load_result_document(json.dumps(doc))

    def test_unknown_version_rejected(self, pipeline_result):
        doc = result_document(pipeline_result)
        doc["schema_version"] = RESULT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="unsupported result schema version"):
            load_result_document(doc)

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing keys"):
            load_result_document({"schema_version": RESULT_SCHEMA_VERSION})

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            load_result_document(json.dumps([1, 2, 3]))
