"""Execution reports account for every phase (parse/plan/scan/postprocess)."""

import pytest

from repro.geo.bbox import BBox
from repro.geo.grid import GeoGrid
from repro.model.reports import PositionReport
from repro.obs import MetricsRegistry
from repro.query.ast import SelectQuery, TriplePattern, Variable
from repro.query.executor import QueryExecutor
from repro.rdf import vocabulary as V
from repro.rdf.transform import RdfTransformer
from repro.store.parallel import ParallelRDFStore
from repro.store.partition import GridPartitioner

#: Phase sums exclude only span bookkeeping, so the tolerance is loose
#: enough for CI noise yet tight enough to catch a dropped phase.
TOLERANCE = 0.5


def build_executor(metrics=None):
    grid = GeoGrid(bbox=BBox(22.0, 35.0, 29.0, 41.0), nx=16, ny=16)
    transformer = RdfTransformer(st_grid=grid)
    store = ParallelRDFStore(GridPartitioner(grid, 4))
    for v, lon0 in (("V1", 23.0), ("V2", 25.0), ("V3", 27.0)):
        for i in range(10):
            store.add_document(
                transformer.report_to_triples(
                    PositionReport(
                        entity_id=v,
                        t=float(i * 60),
                        lon=lon0 + 0.01 * i,
                        lat=37.0,
                        speed=5.0,
                    )
                )
            )
    return QueryExecutor(store, metrics=metrics)


def node_query():
    n, t = Variable("n"), Variable("t")
    return SelectQuery(
        select=(n, t),
        patterns=(
            TriplePattern(n, V.PROP_TYPE, V.CLASS_SEMANTIC_NODE),
            TriplePattern(n, V.PROP_TIMESTAMP, t),
        ),
    )


class TestPhaseAccounting:
    def test_phases_sum_to_total(self):
        executor = build_executor()
        _, report = executor.execute(node_query())
        total_of_phases = sum(report.phase_times().values())
        assert report.total_s > 0
        assert total_of_phases == pytest.approx(
            report.total_s, rel=TOLERANCE, abs=2e-3
        )

    def test_plan_and_postprocess_are_timed(self):
        # The historic bug: parse/plan time was silently dropped from the
        # report, so totals understated what the caller actually paid.
        executor = build_executor()
        _, report = executor.execute(node_query())
        assert report.plan_s > 0
        assert report.postprocess_s >= 0
        assert report.total_s >= report.scan_s + report.plan_s

    def test_scan_is_measured(self):
        executor = build_executor()
        _, report = executor.execute(node_query())
        assert report.scan_s > 0
        assert report.phase_times()["scan_s"] == report.scan_s

    def test_execute_text_includes_parse_in_total(self):
        executor = build_executor()
        rows, report = executor.execute_text(
            "SELECT ?n WHERE { ?n a dac:SemanticNode . }"
        )
        assert len(rows) == 30
        assert report.parse_s > 0
        phases = report.phase_times()
        assert phases["parse_s"] == report.parse_s
        assert sum(phases.values()) == pytest.approx(
            report.total_s, rel=TOLERANCE, abs=2e-3
        )

    def test_prebuilt_query_has_zero_parse(self):
        executor = build_executor()
        _, report = executor.execute(node_query())
        assert report.parse_s == 0.0


class TestReportShape:
    def test_summary_is_flat_floats(self):
        executor = build_executor()
        _, report = executor.execute(node_query())
        summary = report.summary()
        for key in (
            "n_results",
            "parse_ms",
            "plan_ms",
            "scan_ms",
            "postprocess_ms",
            "total_ms",
        ):
            assert isinstance(summary[key], float)

    def test_as_dict_common_schema(self):
        executor = build_executor()
        _, report = executor.execute(node_query())
        d = report.as_dict()
        assert d["kind"] == "query"
        assert set(d) == {"kind", "summary", "metrics"}

    def test_metrics_empty_without_registry(self):
        executor = build_executor()
        _, report = executor.execute(node_query())
        assert report.metrics == {}


class TestExecutorInstrumentation:
    def test_query_histograms_and_spans(self):
        metrics = MetricsRegistry(seed=3)
        executor = build_executor(metrics=metrics)
        executor.execute(node_query())
        names = set(metrics.histogram_names())
        assert {"query.plan", "query.scan", "query.postprocess", "query.total"} <= names
        assert metrics.counters()["query.executed"] == 1
        span_names = [s.name for s in metrics.spans]
        assert "query.execute" in span_names
        assert "query.scan" in span_names

    def test_execute_text_records_parse_histogram(self):
        metrics = MetricsRegistry(seed=3)
        executor = build_executor(metrics=metrics)
        executor.execute_text("SELECT ?n WHERE { ?n a dac:SemanticNode . }")
        assert metrics.histogram("query.parse").count == 1

    def test_total_histogram_sample_includes_parse(self):
        metrics = MetricsRegistry(seed=3)
        executor = build_executor(metrics=metrics)
        _, report = executor.execute_text(
            "SELECT ?n WHERE { ?n a dac:SemanticNode . }"
        )
        assert metrics.histogram("query.total").samples == (report.total_s,)
        assert metrics.histogram("query.parse").samples == (report.parse_s,)

    def test_repeated_queries_accumulate(self):
        metrics = MetricsRegistry(seed=3)
        executor = build_executor(metrics=metrics)
        for _ in range(3):
            executor.execute(node_query())
        assert metrics.counters()["query.executed"] == 3
        assert metrics.histogram("query.total").count == 3
