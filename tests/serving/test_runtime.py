"""ServingRuntime behavior: endpoints, the event log, shard transparency.

The strongest check here is *shard transparency*: a 4-shard runtime and
a 1-shard runtime fed the same reports must serve digest-comparable
results for every fan-out read (range, textual query with ORDER BY /
DISTINCT / LIMIT) — sharding is a throughput decision, never a
semantics decision.
"""

from __future__ import annotations

import pytest

from repro.cep.simple import SimpleEventExtractor
from repro.core.config import PipelineConfig
from repro.core.pipeline import PipelineSpec
from repro.core.results import digest_of
from repro.serving import ENDPOINTS, ServingConfig, ServingRuntime

from tests.serving.conftest import build_runtime


# ---------------------------------------------------------------------------
# Ingest and the event log
# ---------------------------------------------------------------------------


def test_ingest_summary_and_event_log(serving_spec, serving_reports):
    runtime = build_runtime(serving_spec)
    half = len(serving_reports) // 2
    first = runtime.ingest(serving_reports[:half])
    assert first["reports"] == half
    assert first["event_seq"] == first["new_events"]
    assert first["invalidated_tags"] > 0
    second = runtime.ingest(serving_reports[half:])
    assert second["event_seq"] == first["new_events"] + second["new_events"]
    assert runtime.event_seq() == second["event_seq"]

    log = runtime.handle("events", {"since": 0, "limit": 100_000})
    events = log.payload["events"]
    assert [e["seq"] for e in events] == list(range(len(events)))
    assert all(e["kind"] in ("simple", "complex") for e in events)


def test_ingest_logs_simple_events_without_building_them(
    dense_maritime_sample, monkeypatch
):
    """Serving reads only the keys of a batch's new simple events: a dense
    columnar ingest builds no proximity event beyond those the pipeline
    builds itself (replayed records), and the event log still equals the
    per-record pipeline's simple-event stream."""
    sample = dense_maritime_sample
    reports = sorted(sample.reports, key=lambda r: r.t)[:640]
    batches = [reports[start : start + 64] for start in range(0, len(reports), 64)]
    spec = PipelineSpec(
        bbox=sample.world.bbox,
        config=PipelineConfig(),
        registry=sample.registry,
        zones=tuple(sample.world.zones),
    )
    expected = spec.build().run(reports)
    calls = []
    build = SimpleEventExtractor._proximity_event

    def counting(report, other, distance):
        calls.append(1)
        return build(report, other, distance)

    monkeypatch.setattr(SimpleEventExtractor, "_proximity_event", staticmethod(counting))
    bare = spec.build()
    for batch in batches:
        bare.process_batch(batch)
    built_by_pipeline = len(calls)
    calls.clear()
    runtime = build_runtime(spec, n_shards=1)
    for batch in batches:
        runtime.ingest(batch)
    assert len(calls) == built_by_pipeline < len(bare.result.simple_events) // 10
    simple = [
        (e["event_type"], e["entity_ids"][0], e["t"])
        for e in runtime._events
        if e["kind"] == "simple"
    ]
    assert simple == list(expected.simple_events.keys())
    assert sum(1 for e in simple if e[0] == "proximity") > 1000


def test_events_cursor_pagination(warm_runtime):
    total = warm_runtime.event_seq()
    assert total > 0, "the warm sample must produce events"
    first = warm_runtime.handle("events", {"since": 0, "limit": 1})
    assert first.payload["n_results"] == 1
    cursor = first.payload["next_seq"]
    rest = warm_runtime.handle("events", {"since": cursor, "limit": 100_000})
    assert rest.payload["n_results"] == total - 1
    done = warm_runtime.handle("events", {"since": total, "limit": 10})
    assert done.payload["events"] == []
    assert done.payload["next_seq"] == total


def test_events_window_of_a_wrapped_log(serving_spec, serving_reports):
    """Offset slicing serves exactly what a full filter of the log would."""
    runtime = build_runtime(serving_spec, max_events=7)
    for start in range(0, len(serving_reports), 16):
        runtime.ingest(serving_reports[start : start + 16])
    total = runtime.event_seq()
    assert total > 3 * 7, "the log must have wrapped past maxlen"
    oldest = total - 7
    assert [e["seq"] for e in runtime._events] == list(range(oldest, total))

    for since in (-5, 0, oldest - 1, oldest, oldest + 1, oldest + 3, total - 1, total, total + 4):
        for limit in (1, 2, 3, 4, 7, 50):
            expected = [e for e in runtime._events if e["seq"] >= since][:limit]
            response = runtime.handle(
                "events", {"since": since, "limit": limit}, bypass_cache=True
            )
            assert response.payload == {
                "n_results": len(expected),
                "next_seq": expected[-1]["seq"] + 1 if expected else total,
                "events": expected,
            }, (since, limit)
            assert response.digest == digest_of(response.payload)


def test_empty_ingest_is_a_noop(warm_runtime):
    seq = warm_runtime.event_seq()
    summary = warm_runtime.ingest([])
    assert summary == {
        "reports": 0,
        "new_events": 0,
        "event_seq": seq,
        "invalidated_tags": 0,
    }


# ---------------------------------------------------------------------------
# Endpoint payloads and validation
# ---------------------------------------------------------------------------


def test_state_serves_latest_report(warm_runtime, serving_reports):
    entity_id = warm_runtime.entity_ids()[0]
    half = len(serving_reports) // 2
    expected = max(
        (r for r in serving_reports[:half] if r.entity_id == entity_id),
        key=lambda r: r.t,
    )
    response = warm_runtime.handle("state", {"entity_id": entity_id})
    assert response.status == 200
    assert response.payload["t"] == expected.t
    assert response.payload["lon"] == expected.lon
    assert response.digest == digest_of(response.payload)


def test_forecast_extrapolates_forward(warm_runtime):
    entity_id = warm_runtime.entity_ids()[0]
    state = warm_runtime.handle("state", {"entity_id": entity_id}).payload
    response = warm_runtime.handle(
        "forecast", {"entity_id": entity_id, "horizon_s": 300.0}
    )
    assert response.status == 200
    payload = response.payload
    assert payload["horizon_s"] == 300.0
    assert payload["point"]["t"] == pytest.approx(state["t"] + 300.0)
    assert payload["model"]
    assert 0.0 <= payload["confidence"] <= 1.0


def test_forecast_default_horizon(serving_spec, serving_reports):
    runtime = ServingRuntime(
        serving_spec, ServingConfig(n_shards=2, default_horizon_s=42.0)
    )
    runtime.ingest(serving_reports[:200])
    entity_id = runtime.entity_ids()[0]
    response = runtime.handle("forecast", {"entity_id": entity_id})
    assert response.payload["horizon_s"] == 42.0


def test_trajectory_matches_owning_shard_store(warm_runtime):
    entity_id = warm_runtime.entity_ids()[0]
    response = warm_runtime.handle("trajectory", {"entity_id": entity_id})
    assert response.status == 200
    shard_id = response.shards[0]
    stored = warm_runtime.shards[shard_id].executor.entity_trajectory(entity_id)
    assert response.payload["n_points"] == len(stored)
    assert response.payload["t"] == [float(v) for v in stored.t]


def test_unknown_entity_404s(warm_runtime):
    for endpoint in ("state", "forecast", "trajectory"):
        response = warm_runtime.handle(endpoint, {"entity_id": "NOPE"})
        assert response.status == 404
        assert "NOPE" in response.payload["error"]


def test_validation_failures_400(warm_runtime):
    assert warm_runtime.handle("nonsense", {}).status == 400
    assert warm_runtime.handle("state", {}).status == 400  # missing entity_id
    assert warm_runtime.handle("range", {"bbox": [1, 2, 3]}).status == 400
    assert (
        warm_runtime.handle("events", {"since": 0, "limit": 0}).status == 400
    )
    assert warm_runtime.handle("query", {"query": "not a query"}).status == 400


def test_every_endpoint_records_latency_histogram(warm_runtime):
    bbox = warm_runtime.shards[0].grid.bbox
    warm_runtime.handle("state", {"entity_id": warm_runtime.entity_ids()[0]})
    warm_runtime.handle(
        "forecast", {"entity_id": warm_runtime.entity_ids()[0]}
    )
    warm_runtime.handle(
        "trajectory", {"entity_id": warm_runtime.entity_ids()[0]}
    )
    warm_runtime.handle(
        "range",
        {"bbox": [bbox.min_lon, bbox.min_lat, bbox.max_lon, bbox.max_lat]},
    )
    warm_runtime.handle(
        "query", {"query": "SELECT ?o WHERE { ?n dac:ofMovingObject ?o . }"}
    )
    warm_runtime.handle("events", {"since": 0})
    summaries = warm_runtime.metrics.histogram_summaries()
    for endpoint in ENDPOINTS:
        name = f"serving.request.{endpoint}"
        assert name in summaries and summaries[name]["count"] >= 1


# ---------------------------------------------------------------------------
# Shard transparency
# ---------------------------------------------------------------------------

_QUERIES = (
    "SELECT ?o WHERE { ?n dac:ofMovingObject ?o . }",
    "SELECT DISTINCT ?o WHERE { ?n dac:ofMovingObject ?o . }",
    "SELECT ?t WHERE { ?n time:inSeconds ?t . } ORDER BY ?t LIMIT 25",
    "SELECT ?t WHERE { ?n time:inSeconds ?t . } ORDER BY DESC(?t) LIMIT 10",
)


def test_sharding_is_semantically_invisible(serving_spec, serving_reports):
    """Fan-out reads on a 4-shard runtime are digest-identical to the
    same reads on an unsharded runtime over the same ingested data."""
    sharded = build_runtime(serving_spec, n_shards=4)
    single = build_runtime(serving_spec, n_shards=1)
    sharded.ingest(serving_reports)
    single.ingest(serving_reports)
    bbox = serving_spec.bbox

    requests = [
        (
            "range",
            {"bbox": [bbox.min_lon, bbox.min_lat, bbox.max_lon, bbox.max_lat]},
        ),
        (
            "range",
            {
                "bbox": [
                    bbox.min_lon,
                    bbox.min_lat,
                    (bbox.min_lon + bbox.max_lon) / 2.0,
                    (bbox.min_lat + bbox.max_lat) / 2.0,
                ],
                "t_from": 0.0,
                "t_to": 600.0,
            },
        ),
    ] + [("query", {"query": q}) for q in _QUERIES]
    for endpoint, params in requests:
        wide = sharded.handle(endpoint, params, bypass_cache=True)
        narrow = single.handle(endpoint, params, bypass_cache=True)
        assert wide.status == narrow.status == 200
        assert wide.digest == narrow.digest, (endpoint, params)

    # Entity-scoped reads agree too (different shard, same answer).
    for entity_id in sharded.entity_ids():
        for endpoint in ("state", "trajectory"):
            wide = sharded.handle(
                endpoint, {"entity_id": entity_id}, bypass_cache=True
            )
            narrow = single.handle(
                endpoint, {"entity_id": entity_id}, bypass_cache=True
            )
            assert wide.digest == narrow.digest


def test_order_by_limit_applied_globally_not_per_shard(
    serving_spec, serving_reports
):
    """A per-shard LIMIT would under-produce: the global top-k must equal
    the unsharded top-k exactly, which only holds when modifiers run
    after the merge."""
    sharded = build_runtime(serving_spec, n_shards=4)
    single = build_runtime(serving_spec, n_shards=1)
    sharded.ingest(serving_reports)
    single.ingest(serving_reports)
    query = "SELECT ?t WHERE { ?n time:inSeconds ?t . } ORDER BY ?t LIMIT 5"
    wide = sharded.handle("query", {"query": query}, bypass_cache=True)
    narrow = single.handle("query", {"query": query}, bypass_cache=True)
    assert wide.payload["n_results"] == 5
    assert wide.payload["rows"] == narrow.payload["rows"]
