"""The id-level executor answers exactly like the Term-level reference.

Hypothesis builds small stores that carry every awkward case the
executor has to get right — hash / grid / Hilbert placement,
multi-valued and non-numeric lon/lat/time literals, blank-node
subjects, keyless position documents (which turn spatial pruning off),
``Literal(1)`` and ``Literal(1.0)`` sharing one dictionary id,
subjects removed and re-inserted — and queries over them with unknown
constants, repeated variables, cross-subject joins, filters on unbound
variables and ``ORDER BY`` / ``DISTINCT`` / ``LIMIT``, plus
``range_query`` and ``knn_nodes``. Rows must be identical in order and
in the very term objects they hold (compared by ``repr``, so
``Literal(1)`` and ``Literal(1.0)`` differ), and the ``ExecutionReport``
payloads must be equal.

Both evaluators run under ``determinism_sanitizer()``; CI runs this
file in its "Sanitizer differential arm" step.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import determinism_sanitizer
from repro.geo.bbox import BBox
from repro.geo.grid import GeoGrid
from repro.query.ast import (
    CompareFilter,
    OrderBy,
    SelectQuery,
    STWithinFilter,
    TriplePattern,
    Variable,
)
from repro.query.executor import QueryExecutor
from repro.rdf import vocabulary as V
from repro.rdf.terms import IRI, BlankNode, Literal, Triple
from repro.rdf.transform import RdfTransformer, entity_iri
from repro.store.parallel import ParallelRDFStore
from repro.store.partition import GridPartitioner, HashPartitioner, HilbertPartitioner
from tests.query.reference import ReferenceExecutor

WORLD = BBox(22.0, 35.0, 29.0, 41.0)
GRID = GeoGrid(bbox=WORLD, nx=8, ny=8)
TRANSFORMER = RdfTransformer(st_grid=GRID)
LINK = IRI("http://example.org/link")
ENTITIES = ("A", "B", "C")
N, M, O, X, Y, VAL, PRED = (Variable(name) for name in ("n", "m", "o", "x", "y", "v", "p"))

PARTITIONERS = {
    "hash": lambda: HashPartitioner(4),
    "grid": lambda: GridPartitioner(GRID, 4),
    "hilbert": lambda: HilbertPartitioner(GRID, 4),
}


def attribute(numeric, odd: list) -> st.SearchStrategy:
    """A property's values: mostly one number inside the world; sometimes
    none, two, or one that is not numeric or not a literal at all."""
    value = st.one_of(numeric, numeric, numeric, numeric, st.sampled_from(odd))
    return st.one_of(st.lists(value, min_size=1, max_size=1), st.lists(value, max_size=2))


longitude = attribute(
    st.floats(22.0, 29.0).map(Literal),
    [Literal("east"), Literal("24.5"), Literal(24), IRI("http://example.org/x")],
)
latitude = attribute(
    st.floats(35.0, 41.0).map(Literal),
    [Literal("north"), Literal(True), Literal(38), IRI("http://example.org/y")],
)
timestamp = attribute(
    st.one_of(
        st.integers(0, 6).map(lambda t: Literal(t * 600)),
        st.integers(0, 6).map(lambda t: Literal(float(t * 600))),
    ),
    [Literal("noon"), BlankNode("t")],
)
# Literal(1) == Literal(1.0) == Literal(True): one dictionary id, and the
# representative is whichever the store saw first.
speed = st.sampled_from([Literal(1), Literal(1.0), Literal(True), Literal(2.5), Literal("fast")])


@st.composite
def node_documents(draw, index: int) -> list[Triple]:
    """One subject's document: a position node, possibly odd in every way."""
    blank = draw(st.integers(0, 4)) == 0
    subject = BlankNode(f"b{index}") if blank else IRI(f"http://example.org/node/{index}")
    triples = []
    if draw(st.integers(0, 5)):
        triples.append(Triple(subject, V.PROP_TYPE, V.CLASS_SEMANTIC_NODE))
    for prop, values in ((V.PROP_LON, longitude), (V.PROP_LAT, latitude), (V.PROP_TIMESTAMP, timestamp)):
        for value in draw(values):
            triples.append(Triple(subject, prop, value))
    triples.append(Triple(subject, V.PROP_SPEED, draw(speed)))
    triples.append(Triple(subject, V.PROP_OF_MOVING_OBJECT, entity_iri(draw(st.sampled_from(ENTITIES)))))
    if draw(st.booleans()):
        target = draw(st.integers(0, index))
        triples.append(Triple(subject, LINK, subject if target == index else IRI(f"http://example.org/node/{target}")))
    # A position doc without an st-key voids pruning for the whole store.
    if any(t.p == V.PROP_LON for t in triples) and draw(st.integers(0, 15)):
        lon = [t.o.value for t in triples if t.p == V.PROP_LON and isinstance(t.o, Literal)]
        lat = [t.o.value for t in triples if t.p == V.PROP_LAT and isinstance(t.o, Literal)]
        at = [v[0] if v and isinstance(v[0], float) else centre for v, centre in ((lon, 25.5), (lat, 38.0))]
        triples.append(Triple(subject, V.PROP_ST_KEY, Literal(TRANSFORMER.st_key(*at, 0.0))))
    return triples


@st.composite
def stores(draw) -> ParallelRDFStore:
    store = ParallelRDFStore(PARTITIONERS[draw(st.sampled_from(sorted(PARTITIONERS)))]())
    for entity in ENTITIES[: draw(st.integers(0, 3))]:
        store.add_document([Triple(entity_iri(entity), V.PROP_NAME, Literal(f"MV {entity}"))])
    n_nodes = draw(st.integers(4, 14))
    for index in range(n_nodes):
        store.add_document(draw(node_documents(index)))
    for index in draw(st.lists(st.integers(0, n_nodes - 1), max_size=2, unique=True)):
        # Removed subjects are re-routed when they come back.
        subject = IRI(f"http://example.org/node/{index}")
        store.remove_subject(subject)
        if draw(st.booleans()):
            store.add_document(draw(node_documents(index)))
    return store


PATTERNS = (
    TriplePattern(N, V.PROP_TYPE, V.CLASS_SEMANTIC_NODE),
    TriplePattern(N, V.PROP_TIMESTAMP, Y),
    TriplePattern(N, V.PROP_LON, X),
    TriplePattern(N, V.PROP_SPEED, VAL),
    TriplePattern(N, V.PROP_SPEED, Literal(1.0)),
    TriplePattern(N, V.PROP_OF_MOVING_OBJECT, O),
    TriplePattern(N, V.PROP_OF_MOVING_OBJECT, entity_iri("B")),
    TriplePattern(N, V.PROP_OF_MOVING_OBJECT, entity_iri("GHOST")),
    TriplePattern(N, PRED, VAL),
    TriplePattern(N, LINK, N),
    TriplePattern(N, LINK, M),
    TriplePattern(M, V.PROP_TIMESTAMP, Y),
    TriplePattern(O, V.PROP_NAME, X),
)


@st.composite
def intervals(draw) -> tuple[float, float]:
    """``(t_from, t_to)``: often unbounded, else either end may be."""
    if draw(st.booleans()):
        return (-math.inf, math.inf)
    t_from = draw(st.one_of(st.just(-math.inf), st.integers(0, 4000).map(float)))
    t_to = draw(st.one_of(st.just(math.inf), st.integers(0, 4000).map(float)))
    return (min(t_from, t_to), max(t_from, t_to))


@st.composite
def boxes(draw) -> BBox:
    """The whole world, or a box small enough to prune partitions."""
    if draw(st.booleans()):
        return BBox(21.5, 34.5, 29.5, 41.5)
    lon = draw(st.floats(21.5, 26.0))
    lat = draw(st.floats(34.5, 39.0))
    return BBox(lon, lat, lon + draw(st.floats(1.0, 4.0)), lat + draw(st.floats(1.0, 3.0)))


@st.composite
def filters(draw, variables: list[Variable]):
    # Mostly the node variable; any variable, including one no pattern
    # binds (zero rows), otherwise.
    var = draw(st.sampled_from([N, N, *variables, Variable("unbound")]))
    if draw(st.booleans()):
        return CompareFilter(var, draw(st.sampled_from(["<", "<=", ">", ">=", "=", "!="])), draw(st.sampled_from([1.0, 24.5, 600.0, 37.0])))
    return STWithinFilter(var, draw(boxes()), *draw(intervals()))


@st.composite
def queries(draw) -> SelectQuery:
    patterns = tuple(draw(st.lists(st.sampled_from(PATTERNS), min_size=1, max_size=3, unique=True)))
    variables = sorted({v for p in patterns for v in p.variables()}, key=lambda v: v.name)
    return SelectQuery(
        select=tuple(draw(st.lists(st.sampled_from(variables), min_size=1, max_size=3, unique=True))),
        patterns=patterns,
        filters=tuple(draw(st.lists(filters(variables), max_size=2))),
        order_by=draw(st.one_of(st.none(), st.builds(OrderBy, st.sampled_from(variables), st.booleans()))),
        limit=draw(st.one_of(st.none(), st.integers(0, 6))),
        distinct=draw(st.booleans()),
    )


def exact(rows):
    """Rows with each term's type and repr, so equal-but-distinct terms differ."""
    return [[(var.name, repr(term)) for var, term in row.items()] for row in rows]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(store=stores(), query=queries(), use_statistics=st.booleans())
def test_executor_matches_reference(store, query, use_statistics):
    with determinism_sanitizer():
        rows, report = QueryExecutor(store, use_statistics=use_statistics).execute(query)
        expected, expected_report = ReferenceExecutor(store, use_statistics=use_statistics).execute(query)
    assert exact(rows) == exact(expected)
    assert report.deterministic_payload() == expected_report.deterministic_payload()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(store=stores(), box=boxes(), interval=intervals(), k=st.integers(1, 6))
def test_range_and_knn_match_reference(store, box, interval, k):
    executor, reference = QueryExecutor(store), ReferenceExecutor(store)
    centre = ((box.min_lon + box.max_lon) / 2, (box.min_lat + box.max_lat) / 2)
    with determinism_sanitizer():
        nodes, report = executor.range_query(box, *interval)
        expected, expected_report = reference.range_query(box, *interval)
        near = executor.knn_nodes(*centre, k, *interval)
        expected_near = reference.knn_nodes(*centre, k, *interval)
    assert [repr(n) for n in nodes] == [repr(n) for n in expected]
    assert report.deterministic_payload() == expected_report.deterministic_payload()
    assert [(repr(n), d) for n, d in near] == [(repr(n), d) for n, d in expected_near]
