"""Query execution over the parallel store."""

import pytest

from repro.geo.bbox import BBox
from repro.geo.grid import GeoGrid
from repro.model.reports import PositionReport
from repro.query.ast import (
    CompareFilter,
    STWithinFilter,
    SelectQuery,
    TriplePattern,
    Variable,
)
from repro.query.executor import QueryExecutor
from repro.rdf import vocabulary as V
from repro.rdf.terms import IRI, Literal
from repro.rdf.transform import RdfTransformer, entity_iri
from repro.store.parallel import ParallelRDFStore
from repro.store.partition import GridPartitioner, HashPartitioner


def report(entity="V1", t=0.0, lon=24.0, lat=37.0, speed=5.0):
    return PositionReport(
        entity_id=entity, t=t, lon=lon, lat=lat, speed=speed, heading=90.0
    )


@pytest.fixture()
def loaded():
    """A store with 3 entities × 10 nodes each plus entity metadata."""
    grid = GeoGrid(bbox=BBox(22.0, 35.0, 29.0, 41.0), nx=16, ny=16)
    transformer = RdfTransformer(st_grid=grid)
    store = ParallelRDFStore(GridPartitioner(grid, 4))
    from repro.model.entities import Vessel

    for v, lon0 in (("V1", 23.0), ("V2", 25.0), ("V3", 27.0)):
        store.add_document(transformer.entity_to_triples(Vessel(v, f"MV {v}")))
        for i in range(10):
            store.add_document(
                transformer.report_to_triples(
                    report(entity=v, t=float(i * 60), lon=lon0 + 0.01 * i, speed=4.0 + i)
                )
            )
    return QueryExecutor(store)


class TestBgpJoin:
    def test_star_query_counts(self, loaded):
        n, t = Variable("n"), Variable("t")
        query = SelectQuery(
            select=(n, t),
            patterns=(
                TriplePattern(n, V.PROP_TYPE, V.CLASS_SEMANTIC_NODE),
                TriplePattern(n, V.PROP_TIMESTAMP, t),
            ),
        )
        rows, info = loaded.execute(query)
        assert len(rows) == 30
        assert info.strategy == "partition-local"

    def test_anchored_entity_query(self, loaded):
        n = Variable("n")
        query = SelectQuery(
            select=(n,),
            patterns=(TriplePattern(n, V.PROP_OF_MOVING_OBJECT, entity_iri("V2")),),
        )
        rows, __ = loaded.execute(query)
        assert len(rows) == 10

    def test_cross_subject_join_global(self, loaded):
        n, obj, name = Variable("n"), Variable("o"), Variable("name")
        query = SelectQuery(
            select=(n, name),
            patterns=(
                TriplePattern(n, V.PROP_OF_MOVING_OBJECT, obj),
                TriplePattern(obj, V.PROP_NAME, name),
            ),
        )
        rows, info = loaded.execute(query)
        assert info.strategy == "global"
        assert len(rows) == 30
        names = {row[name].value for row in rows}
        assert names == {"MV V1", "MV V2", "MV V3"}

    def test_join_consistency_enforced(self, loaded):
        # ?n must be the same node across patterns; pairing each node's
        # timestamp with its own speed gives exactly 30 rows (not 30×30).
        n, t, s = Variable("n"), Variable("t"), Variable("s")
        query = SelectQuery(
            select=(n, t, s),
            patterns=(
                TriplePattern(n, V.PROP_TIMESTAMP, t),
                TriplePattern(n, V.PROP_SPEED, s),
            ),
        )
        rows, __ = loaded.execute(query)
        assert len(rows) == 30

    def test_unknown_constant_zero_rows(self, loaded):
        n = Variable("n")
        query = SelectQuery(
            select=(n,),
            patterns=(TriplePattern(n, V.PROP_OF_MOVING_OBJECT, entity_iri("GHOST")),),
        )
        rows, __ = loaded.execute(query)
        assert rows == []


class TestFilters:
    def test_compare_filter(self, loaded):
        n, s = Variable("n"), Variable("s")
        query = SelectQuery(
            select=(n,),
            patterns=(TriplePattern(n, V.PROP_SPEED, s),),
            filters=(CompareFilter(s, ">=", 10.0),),
        )
        rows, __ = loaded.execute(query)
        # speeds 4..13 per vessel; >=10 keeps 4 per vessel.
        assert len(rows) == 12

    def test_st_within_prunes_and_filters(self, loaded):
        n = Variable("n")
        query = SelectQuery(
            select=(n,),
            patterns=(TriplePattern(n, V.PROP_TYPE, V.CLASS_SEMANTIC_NODE),),
            filters=(STWithinFilter(n, BBox(24.9, 36.5, 25.2, 37.5), 0.0, 240.0),),
        )
        rows, info = loaded.execute(query)
        # V2 nodes at lon 25.00..25.09, t 0..540; t<=240 keeps 5.
        assert len(rows) == 5
        assert info.pruning_ratio > 0.0
        assert info.partitions_scanned < info.partitions_total


class TestHelpers:
    def test_entity_trajectory_roundtrip(self, loaded):
        trajectory = loaded.entity_trajectory("V1")
        assert len(trajectory) == 10
        assert trajectory.start_time == 0.0
        assert trajectory.end_time == 540.0

    def test_range_query(self, loaded):
        nodes, info = loaded.range_query(BBox(22.9, 36.9, 23.2, 37.1))
        assert len(nodes) == 10
        assert all(isinstance(n, IRI) for n in nodes)

    def test_describe_returns_subject_document(self, loaded):
        from repro.rdf.transform import position_node_iri

        node = position_node_iri("V1", 0.0)
        triples = loaded.describe(node)
        assert len(triples) >= 8
        assert all(t.s == node for t in triples)

    def test_describe_unknown_subject_empty(self, loaded):
        assert loaded.describe(IRI("http://nowhere/x")) == []

    def test_knn_orders_by_distance(self, loaded):
        results = loaded.knn_nodes(25.0, 37.0, k=5)
        assert len(results) == 5
        distances = [d for __, d in results]
        assert distances == sorted(distances)

    def test_knn_k_validation(self, loaded):
        with pytest.raises(ValueError):
            loaded.knn_nodes(25.0, 37.0, k=0)

    def test_report_scan_fields(self, loaded):
        __, info = loaded.range_query(BBox(22.0, 35.0, 29.0, 41.0))
        assert info.scan_s > 0.0
        assert info.total_s >= info.scan_s


class TestHashStoreEquivalence:
    def test_results_independent_of_partitioner(self):
        """The same data under hash vs grid partitioning answers alike."""
        grid = GeoGrid(bbox=BBox(22.0, 35.0, 29.0, 41.0), nx=8, ny=8)
        transformer = RdfTransformer(st_grid=grid)
        reports = [
            report(entity=f"V{i % 3}", t=float(i * 30), lon=23.0 + 0.2 * i)
            for i in range(15)
        ]
        results = []
        for partitioner in (HashPartitioner(4), GridPartitioner(grid, 4)):
            store = ParallelRDFStore(partitioner)
            for r in reports:
                store.add_document(transformer.report_to_triples(r))
            executor = QueryExecutor(store)
            nodes, __ = executor.range_query(BBox(23.0, 36.0, 25.0, 38.0))
            results.append(sorted(n.value for n in nodes))
        assert results[0] == results[1]
