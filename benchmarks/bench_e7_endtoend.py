"""E7 — the "integrated exploitation of voluminous and heterogeneous
data-at-rest and data-in-motion" concept, end to end (paper §1–2).

Scales the fleet and runs the complete pipeline (cleaning → synopses →
RDF store → events), reporting throughput, latency, compression and
analytics output at each scale; then verifies stream/archive integration
by answering one query over the combined store.

Expected shape: per-record latency stays flat (sub-ms) as the fleet
grows; compression and event counts scale with traffic.
"""

import statistics

import pytest

from benchmarks.conftest import emit_table
from repro.core.config import PipelineConfig
from repro.core.pipeline import MobilityPipeline
from repro.geo.bbox import BBox
from repro.sources.generators import MaritimeTrafficGenerator


def _run(n_vessels: int):
    sample = MaritimeTrafficGenerator(seed=404 + n_vessels).generate(
        n_vessels=n_vessels, max_duration_s=3600.0
    )
    pipeline = MobilityPipeline(
        bbox=sample.world.bbox,
        config=PipelineConfig(),
        registry=sample.registry,
        zones=sample.world.zones,
    )
    result = pipeline.run(sample.reports)
    return (sample, pipeline, result)


def test_e7_fleet_scaling(benchmark):
    rows = []
    keep = None
    for n_vessels in (5, 10, 20, 40):
        sample, pipeline, result = _run(n_vessels)
        rows.append([
            n_vessels,
            result.reports_in,
            result.throughput_rps,
            result.end_to_end["p50_ms"],
            result.end_to_end["p95_ms"],
            result.compression_ratio,
            result.triples_stored,
            len(result.simple_events),
            len(result.complex_events),
        ])
        if n_vessels == 20:
            keep = (sample, pipeline, result)
    emit_table(
        "e7_endtoend",
        "E7: end-to-end pipeline scaling with fleet size (1 h of traffic)",
        ["vessels", "reports", "rps", "p50_ms", "p95_ms",
         "compression", "triples", "simple_ev", "complex_ev"],
        rows,
    )

    # Latency must stay in the ms class at every scale.
    assert all(row[4] < 10.0 for row in rows)

    # Integrated query over the populated store (data-at-rest now).
    sample, pipeline, result = keep
    box = sample.world.bbox
    query_box = BBox(
        box.min_lon + box.width * 0.3,
        box.min_lat + box.height * 0.3,
        box.min_lon + box.width * 0.7,
        box.min_lat + box.height * 0.7,
    )
    # The first read also builds the store's indexes from its log and
    # the executor's position column; the median of five warm repeats
    # is the scan alone.
    __, first = pipeline.executor.range_query(query_box, 0.0, 1800.0)
    warm = [pipeline.executor.range_query(query_box, 0.0, 1800.0) for __ in range(5)]
    nodes, report = warm[-1]
    scan_s = statistics.median(r.scan_s for __, r in warm)
    emit_table(
        "e7_integrated_query",
        "E7b: spatio-temporal query over the integrated store",
        ["results", "scanned", "pruning", "scan_ms", "first_scan_ms"],
        [[len(nodes), report.partitions_scanned, report.pruning_ratio,
          scan_s * 1000.0, first.scan_s * 1000.0]],
    )

    benchmark.pedantic(lambda: _run(10), rounds=3, iterations=1)
