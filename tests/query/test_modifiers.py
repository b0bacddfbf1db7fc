"""ORDER BY / LIMIT solution modifiers and GROUP-BY counting."""

import pytest

from repro.geo.bbox import BBox
from repro.geo.grid import GeoGrid
from repro.model.reports import PositionReport
from repro.query.ast import OrderBy, SelectQuery, TriplePattern, Variable
from repro.query.executor import QueryExecutor
from repro.query.parser import QueryParseError, parse_query
from repro.rdf import vocabulary as V
from repro.rdf.transform import RdfTransformer, entity_iri
from repro.store.parallel import ParallelRDFStore
from repro.store.partition import HashPartitioner


@pytest.fixture()
def executor():
    transformer = RdfTransformer(
        st_grid=GeoGrid(bbox=BBox(22.0, 35.0, 29.0, 41.0), nx=8, ny=8)
    )
    store = ParallelRDFStore(HashPartitioner(2))
    for v, count in (("V1", 5), ("V2", 3), ("V3", 1)):
        for i in range(count):
            store.add_document(
                transformer.report_to_triples(
                    PositionReport(
                        entity_id=v, t=float(i * 60), lon=24.0 + 0.01 * i, lat=37.0,
                        speed=float(i), heading=90.0,
                    )
                )
            )
    return QueryExecutor(store)


def node_time_query(order_by=None, limit=None):
    n, t = Variable("n"), Variable("t")
    return SelectQuery(
        select=(n, t),
        patterns=(
            TriplePattern(n, V.PROP_TYPE, V.CLASS_SEMANTIC_NODE),
            TriplePattern(n, V.PROP_TIMESTAMP, t),
        ),
        order_by=order_by,
        limit=limit,
    )


class TestOrderBy:
    def test_ascending_numeric(self, executor):
        rows, __ = executor.execute(node_time_query(order_by=OrderBy(Variable("t"))))
        times = [row[Variable("t")].value for row in rows]
        assert times == sorted(times)

    def test_descending(self, executor):
        rows, __ = executor.execute(
            node_time_query(order_by=OrderBy(Variable("t"), descending=True))
        )
        times = [row[Variable("t")].value for row in rows]
        assert times == sorted(times, reverse=True)

    def test_order_variable_must_be_bound(self):
        with pytest.raises(ValueError):
            node_time_query(order_by=OrderBy(Variable("zzz")))

    def test_order_by_unprojected_variable(self, executor):
        n, t = Variable("n"), Variable("t")
        full, __ = executor.execute(node_time_query(order_by=OrderBy(t, descending=True)))
        query = SelectQuery(
            select=(n,),
            patterns=node_time_query().patterns,
            order_by=OrderBy(t, descending=True),
        )
        rows, __ = executor.execute(query)
        assert rows == [{n: row[n]} for row in full]
        assert [row[t].value for row in full] != sorted(row[t].value for row in full)


class TestLimit:
    def test_limit_truncates(self, executor):
        rows, __ = executor.execute(node_time_query(limit=4))
        assert len(rows) == 4

    def test_limit_zero(self, executor):
        rows, __ = executor.execute(node_time_query(limit=0))
        assert rows == []

    def test_limit_with_order_takes_top(self, executor):
        rows, __ = executor.execute(
            node_time_query(order_by=OrderBy(Variable("t"), descending=True), limit=2)
        )
        times = [row[Variable("t")].value for row in rows]
        assert times == [240.0, 240.0] or times[0] >= times[1]

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            node_time_query(limit=-1)


class TestParserModifiers:
    def test_order_by_plain(self):
        q = parse_query("SELECT ?t WHERE { ?n time:inSeconds ?t . } ORDER BY ?t")
        assert q.order_by == OrderBy(Variable("t"), descending=False)

    def test_order_by_desc(self):
        q = parse_query("SELECT ?t WHERE { ?n time:inSeconds ?t . } ORDER BY DESC(?t)")
        assert q.order_by == OrderBy(Variable("t"), descending=True)

    def test_limit(self):
        q = parse_query("SELECT ?t WHERE { ?n time:inSeconds ?t . } LIMIT 7")
        assert q.limit == 7

    def test_order_and_limit(self):
        q = parse_query(
            "SELECT ?t WHERE { ?n time:inSeconds ?t . } ORDER BY ASC(?t) LIMIT 2"
        )
        assert q.order_by is not None and q.limit == 2

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT ?t WHERE { ?n time:inSeconds ?t . } LIMIT nope",
            "SELECT ?t WHERE { ?n time:inSeconds ?t . } LIMIT 2.5",
            "SELECT ?t WHERE { ?n time:inSeconds ?t . } ORDER ?t",
            "SELECT ?t WHERE { ?n time:inSeconds ?t . } garbage",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(QueryParseError):
            parse_query(text)


class TestDistinct:
    def test_distinct_collapses_duplicates(self, executor):
        from repro.query.parser import parse_query

        plain = parse_query("SELECT ?o WHERE { ?n dac:ofMovingObject ?o . }")
        distinct = parse_query(
            "SELECT DISTINCT ?o WHERE { ?n dac:ofMovingObject ?o . }"
        )
        plain_rows, __ = executor.execute(plain)
        distinct_rows, __ = executor.execute(distinct)
        assert len(plain_rows) == 9  # 5 + 3 + 1 nodes
        assert len(distinct_rows) == 3  # V1, V2, V3

    def test_distinct_with_order_and_limit(self, executor):
        from repro.query.parser import parse_query

        query = parse_query(
            "SELECT DISTINCT ?t WHERE { ?n time:inSeconds ?t . } "
            "ORDER BY DESC(?t) LIMIT 2"
        )
        rows, __ = executor.execute(query)
        times = [row[Variable("t")].value for row in rows]
        assert times == [240.0, 180.0]

    def test_ast_flag(self):
        query = node_time_query()
        assert not query.distinct


class TestCountBy:
    def test_events_per_entity(self, executor):
        n, obj = Variable("n"), Variable("o")
        query = SelectQuery(
            select=(n,),
            patterns=(TriplePattern(n, V.PROP_OF_MOVING_OBJECT, obj),),
        )
        counts = executor.count_by(obj, query)
        by_entity = {term.value: count for term, count in counts}
        assert by_entity[entity_iri("V1").value] == 5
        assert by_entity[entity_iri("V2").value] == 3
        assert by_entity[entity_iri("V3").value] == 1
        # Sorted by descending count.
        assert [c for __, c in counts] == [5, 3, 1]

    def test_group_var_must_be_bound(self, executor):
        n = Variable("n")
        query = SelectQuery(
            select=(n,),
            patterns=(TriplePattern(n, V.PROP_TYPE, V.CLASS_SEMANTIC_NODE),),
        )
        with pytest.raises(ValueError):
            executor.count_by(Variable("missing"), query)
