"""The position column answers spatio-temporal reads exactly like the reference.

``QueryExecutor`` answers ``range_query``, ``knn_nodes`` and the
``ST_WITHIN`` filter from a column it derives from the partitions'
insert logs and catches up before each read. A hypothesis state machine
interleaves what can make such a column stale — documents that add a
second lon/lat/time to a node the column already holds, retention
removals (tombstones), a subject removed and re-placed, pickle round
trips of the store — with the three reads, and requires the same rows
in the same order and equal report payloads as ``ReferenceExecutor``,
which re-reads every literal through ``store.match``. Half the machines
plan by store statistics, so ``range_query`` also takes its join
branch (another pattern planned before ``?n a Node``). Every store write
and every read runs under ``determinism_sanitizer()``; CI runs this
file in its "Sanitizer differential arm" step.
"""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.analysis.sanitizer import determinism_sanitizer
from repro.geo.bbox import BBox
from repro.obs.metrics import MetricsRegistry
from repro.query.ast import SelectQuery, STWithinFilter, TriplePattern, Variable
from repro.query.executor import QueryExecutor
from repro.rdf import vocabulary as V
from repro.rdf.terms import IRI, BlankNode, Literal, Triple
from repro.store.parallel import ParallelRDFStore
from tests.query.reference import ReferenceExecutor
from tests.query.test_id_execution_differential import (
    LINK,
    PARTITIONERS,
    boxes,
    exact,
    intervals,
    node_documents,
)

N, M = Variable("n"), Variable("m")
FALLBACK = "query.fallback.position_read"
#: Extra position values a later document can add to a node: another
#: number, a number as text, NaN and infinity, a non-number, an IRI.
EXTRA = {
    V.PROP_LON: [Literal(23.5), Literal("26.0"), Literal("nan"), Literal("west"), IRI("http://example.org/x")],
    V.PROP_LAT: [Literal(37.5), Literal("39.0"), Literal(float("inf")), Literal("south"), IRI("http://example.org/y")],
    V.PROP_TIMESTAMP: [Literal(1200), Literal("nan"), Literal(float("inf")), Literal("dusk"), BlankNode("t2")],
}


def subject(index: int) -> IRI:
    return IRI(f"http://example.org/node/{index}")


def text_query(box: BBox, interval: tuple[float, float]) -> str:
    """``?n a Node ; time ?t`` inside the box, the interval when it is finite."""
    numbers = [box.min_lon, box.min_lat, box.max_lon, box.max_lat]
    if all(math.isfinite(t) for t in interval):
        numbers += list(interval)
    args = ", ".join(repr(float(x)) for x in numbers)
    return (
        "SELECT ?n ?t WHERE { ?n a dac:SemanticNode . ?n time:inSeconds ?t . "
        f"FILTER ST_WITHIN(?n, {args}) }}"
    )


class PositionColumnMachine(RuleBasedStateMachine):
    """One store, and a long-lived executor beside a reference built with it.

    The two planners cache statistics at their first read of a pattern;
    both are asked the same queries at the same moments, so they plan
    alike.
    """

    @initialize(partitioner=st.sampled_from(sorted(PARTITIONERS)), use_statistics=st.booleans())
    def build(self, partitioner: str, use_statistics: bool) -> None:
        self.store = ParallelRDFStore(PARTITIONERS[partitioner]())
        self.metrics = MetricsRegistry()
        self.use_statistics = use_statistics
        self._executors()
        self.n_nodes = 0

    def _executors(self) -> None:
        self.executor = QueryExecutor(self.store, metrics=self.metrics, use_statistics=self.use_statistics)
        self.reference = ReferenceExecutor(self.store, use_statistics=self.use_statistics)

    @rule(data=st.data(), n=st.integers(1, 4))
    def add_documents(self, data: st.DataObject, n: int) -> None:
        documents = [data.draw(node_documents(self.n_nodes + i)) for i in range(n)]
        self.n_nodes += n
        with determinism_sanitizer():
            self.store.add_documents(documents)

    @rule(data=st.data())
    def add_values_to_a_node(self, data: st.DataObject) -> None:
        """A second document for a node the column may already hold."""
        if not self.n_nodes:
            return
        node = subject(data.draw(st.integers(0, self.n_nodes - 1)))
        props = data.draw(st.lists(st.sampled_from(sorted(EXTRA, key=str)), min_size=1, max_size=3))
        document = [Triple(node, prop, data.draw(st.sampled_from(EXTRA[prop]))) for prop in props]
        with determinism_sanitizer():
            self.store.add_document(document)

    @rule(t=st.integers(0, 4000))
    def expire(self, t: int) -> None:
        with determinism_sanitizer():
            self.store.expire_before(float(t))

    @rule(data=st.data())
    def remove_and_maybe_replace(self, data: st.DataObject) -> None:
        """A removed subject is re-routed (possibly elsewhere) when it comes back."""
        if not self.n_nodes:
            return
        index = data.draw(st.integers(0, self.n_nodes - 1))
        document = data.draw(st.one_of(st.none(), node_documents(index)))
        with determinism_sanitizer():
            self.store.remove_subject(subject(index))
            if document is not None:
                self.store.add_document(document)

    @rule()
    def pickle_round_trip(self) -> None:
        """A restored store starts a new executor, whose column starts empty."""
        with determinism_sanitizer():
            self.store = pickle.loads(pickle.dumps(self.store))
            self._executors()

    @rule()
    def new_executors(self) -> None:
        """Fresh planners count the store as it is now; the column starts empty."""
        self._executors()

    @rule(box=boxes(), interval=intervals(), k=st.integers(1, 6))
    def read(self, box: BBox, interval: tuple[float, float], k: int) -> None:
        reference = self.reference
        centre = ((box.min_lon + box.max_lon) / 2, (box.min_lat + box.max_lat) / 2)
        text = text_query(box, interval)
        linked = SelectQuery(
            select=(M, N),
            patterns=(TriplePattern(M, LINK, N),),
            filters=(STWithinFilter(N, box, *interval),),
        )
        read_before = self.metrics.counters().get(FALLBACK, 0)
        with determinism_sanitizer():
            nodes, report = self.executor.range_query(box, *interval)
            expected, expected_report = reference.range_query(box, *interval)
            near = self.executor.knn_nodes(*centre, k, *interval)
            expected_near = reference.knn_nodes(*centre, k, *interval)
            rows, text_report = self.executor.execute_text(text)
            expected_rows, expected_text_report = reference.execute_text(text)
            global_rows, global_report = self.executor.execute(linked)
            expected_global, expected_global_report = reference.execute(linked)
        assert [repr(n) for n in nodes] == [repr(n) for n in expected]
        assert report.deterministic_payload() == expected_report.deterministic_payload()
        assert [(repr(n), d) for n, d in near] == [(repr(n), d) for n, d in expected_near]
        assert exact(rows) == exact(expected_rows)
        assert text_report.deterministic_payload() == expected_text_report.deterministic_payload()
        assert exact(global_rows) == exact(expected_global)
        assert global_report.deterministic_payload() == expected_global_report.deterministic_payload()
        if not self.executor._positions.multi:
            # Only a multi-valued node is read per node.
            assert self.metrics.counters().get(FALLBACK, 0) == read_before


PositionColumnMachine.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
test_position_column_matches_reference = PositionColumnMachine.TestCase


def _term(value):
    return value if isinstance(value, (IRI, BlankNode)) else Literal(value)


def _node(index: int, lon: list, lat: list, t: list) -> list[Triple]:
    """A typed position node; plain values become literals."""
    node = subject(index)
    triples = [Triple(node, V.PROP_TYPE, V.CLASS_SEMANTIC_NODE)]
    for prop, values in ((V.PROP_LON, lon), (V.PROP_LAT, lat), (V.PROP_TIMESTAMP, t)):
        triples += [Triple(node, prop, _term(v)) for v in values]
    return triples


def _assert_reads_match(executor: QueryExecutor, box: BBox, interval: tuple[float, float]) -> None:
    reference = ReferenceExecutor(executor.store)
    linked = SelectQuery(
        select=(M, N), patterns=(TriplePattern(M, LINK, N),), filters=(STWithinFilter(N, box, *interval),)
    )
    for read in (
        lambda e: e.range_query(box, *interval)[0],
        lambda e: e.knn_nodes(24.0, 37.0, 3, *interval),
        lambda e: exact(e.execute_text(text_query(box, interval))[0]),
        lambda e: exact(e.execute(linked)[0]),
    ):
        assert repr(read(executor)) == repr(read(reference))


INTERVALS = [(-math.inf, math.inf), (0.0, 1200.0), (-math.inf, 1200.0)]


@pytest.mark.parametrize("interval", INTERVALS)
@pytest.mark.parametrize(
    "lon, t",
    [
        (24.0, []),
        (24.0, [600]),
        (24.0, ["nan"]),
        (24.0, [float("inf")]),
        (24.0, ["dusk"]),
        (24.0, [IRI("http://example.org/noon")]),
        ("nan", [600]),
        ("24.0", ["600"]),
    ],
)
def test_single_valued_edge_values_read_like_the_reference(lon, t, interval):
    """One object per predicate is served from the column, odd values included."""
    store = ParallelRDFStore(PARTITIONERS["grid"]())
    store.add_documents([_node(0, [lon], [37.0], t), _node(1, [25.0], [38.0], [900])])
    store.add_document([Triple(subject(1), LINK, subject(0))])
    metrics = MetricsRegistry()
    with determinism_sanitizer():
        _assert_reads_match(QueryExecutor(store, metrics=metrics), BBox(22.0, 35.0, 29.0, 41.0), interval)
    assert FALLBACK not in metrics.counters()


@pytest.mark.parametrize("interval", INTERVALS)
def test_rows_follow_removals_after_the_sync(interval):
    """A tombstone blanks the row of a node the column already holds."""
    store = ParallelRDFStore(PARTITIONERS["hilbert"]())
    store.add_documents([_node(0, [24.0], [37.0], [600]), _node(1, [25.0], [38.0], [900])])
    store.add_document([Triple(subject(1), LINK, subject(0))])
    executor = QueryExecutor(store)
    box = BBox(22.0, 35.0, 29.0, 41.0)
    _assert_reads_match(executor, box, interval)
    store.expire_before(700.0)
    _assert_reads_match(executor, box, interval)
    # Back, elsewhere, with a single lat that is not a number.
    store.add_document(_node(0, [28.5], ["north"], [600]))
    _assert_reads_match(executor, box, interval)
    store.remove_subject(subject(0))
    store.add_document(_node(0, [28.5], [40.5], [600]))
    _assert_reads_match(executor, box, interval)


def test_range_query_joins_when_statistics_plan_time_first(monkeypatch):
    """A typed node without a time makes the time pattern the cheapest, so
    ``range_query`` runs the join with the column-backed filter, not the
    column walk; its rows and reports still match across later writes."""
    def no_walk(*args):
        raise AssertionError("the column walk ran")

    monkeypatch.setattr(QueryExecutor, "_execute_range", no_walk)
    store = ParallelRDFStore(PARTITIONERS["grid"]())
    store.add_documents(
        [_node(0, [24.0], [37.0], [600]), _node(1, [25.0], [38.0], [900]), _node(2, [26.0], [39.0], [])]
    )
    executor = QueryExecutor(store, use_statistics=True, metrics=MetricsRegistry())
    reference = ReferenceExecutor(store, use_statistics=True)
    box = BBox(22.0, 35.0, 29.0, 41.0)

    def assert_reads_match():
        """Rows per interval, after checking them against the reference."""
        counts = []
        for interval in INTERVALS:
            nodes, report = executor.range_query(box, *interval)
            expected, expected_report = reference.range_query(box, *interval)
            assert [repr(n) for n in nodes] == [repr(n) for n in expected]
            assert report.deterministic_payload() == expected_report.deterministic_payload()
            counts.append(len(nodes))
        return counts

    assert assert_reads_match() == [2, 2, 2]
    # After the sync: node 1 gains a second lon and time, node 0 expires.
    store.add_document([
        Triple(subject(1), V.PROP_LON, Literal(28.0)),
        Triple(subject(1), V.PROP_TIMESTAMP, Literal(1200)),
    ])
    store.expire_before(700.0)
    store.add_document(_node(3, [27.0], [40.0], [1500]))
    # Node 1 is one row per time x lon combination, as the join gives it.
    assert assert_reads_match() == [5, 4, 4]


class TestFallbackCounter:
    BOX = BBox(22.0, 35.0, 29.0, 41.0)

    def _store(self) -> ParallelRDFStore:
        store = ParallelRDFStore(PARTITIONERS["hash"]())
        store.add_documents([_node(0, [24.0], [37.0], [600]), _node(1, [25.0], [38.0], [1200])])
        return store

    def test_single_valued_nodes_never_fall_back(self):
        metrics = MetricsRegistry()
        executor = QueryExecutor(self._store(), metrics=metrics)
        nodes, __ = executor.range_query(self.BOX)
        assert len(nodes) == 2
        assert executor.knn_nodes(24.0, 37.0, 2)
        assert FALLBACK not in metrics.counters()

    def test_a_value_added_after_the_sync_falls_back_and_is_counted(self):
        store = self._store()
        metrics = MetricsRegistry()
        executor = QueryExecutor(store, metrics=metrics)
        executor.range_query(self.BOX)
        # Node 1 gains a second lon and time: its first literal is now
        # set order, so each read of it goes through the store.
        store.add_document([
            Triple(subject(1), V.PROP_LON, Literal(30.0)),
            Triple(subject(1), V.PROP_TIMESTAMP, Literal(1800)),
        ])
        for interval in ((-math.inf, math.inf), (0.0, 1500.0)):
            nodes, report = executor.range_query(self.BOX, *interval)
            expected, expected_report = ReferenceExecutor(store).range_query(self.BOX, *interval)
            assert [repr(n) for n in nodes] == [repr(n) for n in expected]
            assert report.deterministic_payload() == expected_report.deterministic_payload()
        assert metrics.counters()[FALLBACK] == 2

    def test_disabled_registry_counts_nothing(self):
        store = self._store()
        store.add_document([Triple(subject(0), V.PROP_LAT, Literal(36.0))])
        metrics = MetricsRegistry(enabled=False)
        QueryExecutor(store, metrics=metrics).range_query(self.BOX)
        assert metrics.counters() == {}
