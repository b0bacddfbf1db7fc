"""Parallel RDF store: routing, matching, stats."""

import pickle

import pytest

from repro.geo.bbox import BBox
from repro.geo.grid import GeoGrid
from repro.model.reports import PositionReport
from repro.obs.metrics import MetricsRegistry
from repro.rdf import vocabulary as V
from repro.rdf.terms import IRI, Literal, Triple
from repro.rdf.transform import RdfTransformer, position_node_iri
from repro.store.parallel import ParallelRDFStore
from repro.store.partition import GridPartitioner, HashPartitioner, HilbertPartitioner


@pytest.fixture()
def grid():
    return GeoGrid(bbox=BBox(22.0, 35.0, 29.0, 41.0), nx=16, ny=16)


@pytest.fixture()
def transformer(grid):
    return RdfTransformer(st_grid=grid)


def report(entity="V1", t=0.0, lon=24.0, lat=37.0):
    return PositionReport(entity_id=entity, t=t, lon=lon, lat=lat, speed=5.0, heading=90.0)


class TestDocumentRouting:
    def test_single_subject_enforced(self, grid, transformer):
        store = ParallelRDFStore(HashPartitioner(4))
        mixed = [
            Triple(IRI("a"), V.PROP_NAME, Literal("x")),
            Triple(IRI("b"), V.PROP_NAME, Literal("y")),
        ]
        with pytest.raises(ValueError):
            store.add_document(mixed)

    def test_empty_document_rejected(self):
        store = ParallelRDFStore(HashPartitioner(4))
        with pytest.raises(ValueError):
            store.add_document([])

    def test_spatial_routing_uses_key(self, grid, transformer):
        store = ParallelRDFStore(GridPartitioner(grid, 4))
        west = transformer.report_to_triples(report(entity="W", lon=22.2, lat=35.2))
        east = transformer.report_to_triples(report(entity="E", lon=28.8, lat=40.8))
        p_west = store.add_document(west)
        p_east = store.add_document(east)
        assert p_west != p_east

    def test_placement_stable_for_repeated_subject(self, grid, transformer):
        store = ParallelRDFStore(GridPartitioner(grid, 4))
        doc = transformer.report_to_triples(report())
        first = store.add_document(doc)
        again = store.add_document(doc)
        assert first == again
        # No duplicate triples were added.
        assert len(store) == len(doc)

    def test_subject_star_colocated(self, grid, transformer):
        """All triples of one subject live in exactly one partition."""
        store = ParallelRDFStore(HilbertPartitioner(grid, 4))
        doc = transformer.report_to_triples(report())
        store.add_document(doc)
        node_id = store.dictionary.try_encode(doc[0].s)
        holding = [
            i for i, partition in enumerate(store.partitions)
            if any(True for __ in partition.match(s=node_id))
        ]
        assert len(holding) == 1


class TestMatching:
    def test_match_across_partitions(self, grid, transformer):
        store = ParallelRDFStore(GridPartitioner(grid, 4))
        for i in range(10):
            store.add_document(
                transformer.report_to_triples(
                    report(entity=f"V{i}", lon=22.5 + i * 0.6, t=float(i))
                )
            )
        nodes = list(store.match(None, V.PROP_TYPE, V.CLASS_SEMANTIC_NODE))
        assert len(nodes) == 10

    def test_match_unknown_term_empty(self, grid, transformer):
        store = ParallelRDFStore(HashPartitioner(2))
        store.add_document(transformer.report_to_triples(report()))
        assert list(store.match(IRI("http://nowhere/x"), None, None)) == []

    def test_match_restricted_partitions(self, grid, transformer):
        store = ParallelRDFStore(GridPartitioner(grid, 4))
        west = transformer.report_to_triples(report(entity="W", lon=22.2, lat=35.2))
        p_west = store.add_document(west)
        found = list(
            store.match(None, V.PROP_TYPE, V.CLASS_SEMANTIC_NODE, partitions=[p_west])
        )
        assert len(found) == 1
        others = [i for i in range(4) if i != p_west]
        assert list(
            store.match(None, V.PROP_TYPE, V.CLASS_SEMANTIC_NODE, partitions=others)
        ) == []

    def test_count(self, grid, transformer):
        store = ParallelRDFStore(HashPartitioner(3))
        for i in range(7):
            store.add_document(transformer.report_to_triples(report(entity=f"V{i}")))
        assert store.count(None, V.PROP_TYPE, V.CLASS_SEMANTIC_NODE) == 7
        assert store.count(IRI("http://nowhere/x"), None, None) == 0


def _every_partition(store, s, p, o):
    """A bound-subject match the slow way: every partition, in order."""
    ids = [None if term is None else store.dictionary.try_encode(term) for term in (s, p, o)]
    decode = store.dictionary.decode
    return [
        Triple(decode(ss), decode(pp), decode(oo))
        for partition in store.partitions
        for ss, pp, oo in partition.match(*ids)
    ]


class TestSubjectBoundScan:
    """A bound subject is scanned on the one partition it was placed on."""

    @pytest.fixture()
    def store(self, grid, transformer):
        store = ParallelRDFStore(HilbertPartitioner(grid, 8), MetricsRegistry(enabled=True))
        for i in range(12):
            store.add_document(
                transformer.report_to_triples(
                    report(entity=f"V{i % 3}", t=float(i), lon=22.3 + 0.5 * i, lat=35.3 + 0.4 * i)
                )
            )
        return store

    @staticmethod
    def assert_placed_scans(store):
        """Every s-bound shape matches the all-partition scan, in one partition scan."""
        scans = store.metrics.counter("store.partition_scans")
        calls = store.metrics.counter("store.match_calls")
        subjects = [store.dictionary.decode(s) for p in store.partitions for s in p.subjects()]
        assert subjects
        for subject in subjects:
            for triple in _every_partition(store, subject, None, None):
                p, o = triple.p, triple.o
                for pattern in ((subject, None, None), (subject, p, None), (subject, None, o), (subject, p, o)):
                    scans_before, calls_before = scans.value, calls.value
                    assert list(store.match(*pattern)) == _every_partition(store, *pattern)
                    assert (scans.value - scans_before, calls.value - calls_before) == (1, 1)

    def test_bound_subject_scans_one_partition(self, store):
        self.assert_placed_scans(store)

    def test_after_remove_and_reinsert(self, store, transformer):
        node = position_node_iri("V1", 4.0)
        node_id = store.dictionary.try_encode(node)
        old = [i for i, part in enumerate(store.partitions) if any(True for __ in part.match(s=node_id))]
        assert store.remove_subject(node) > 0
        assert list(store.match(node, None, None)) == []
        # Re-inserted at the far corner: routed afresh, to another partition.
        doc = transformer.report_to_triples(report(entity="V1", t=4.0, lon=28.8, lat=40.8))
        assert doc[0].s == node
        assert store.add_document(doc) not in old
        assert set(store.match(node, None, None)) == set(doc)
        self.assert_placed_scans(store)

    def test_after_pickle_round_trip(self, store):
        restored = pickle.loads(pickle.dumps(store, protocol=pickle.HIGHEST_PROTOCOL))
        self.assert_placed_scans(restored)

    def test_unplaced_or_excluded_subject_scans_nothing(self, store):
        scans = store.metrics.counter("store.partition_scans")
        # An entity IRI is only ever an object here: never placed.
        entity = next(iter(store.match(None, V.PROP_OF_MOVING_OBJECT, None))).o
        before = scans.value
        assert list(store.match(entity, None, None)) == []
        node = position_node_iri("V0", 0.0)
        placed = store.add_document([Triple(node, V.PROP_NAME, Literal("n"))])
        others = [i for i in range(store.n_partitions) if i != placed]
        assert list(store.match(node, None, None, partitions=others)) == []
        assert scans.value == before
        assert list(store.match(node, None, None, partitions=[placed]))


class TestStats:
    def test_triples_accounted(self, grid, transformer):
        store = ParallelRDFStore(HashPartitioner(4))
        total = 0
        for i in range(20):
            doc = transformer.report_to_triples(report(entity=f"V{i}", t=float(i)))
            store.add_document(doc)
            total += len(doc)
        stats = store.stats()
        assert sum(stats.triples_per_partition) == total == len(store)
        assert sum(stats.subjects_per_partition) == 20
        assert stats.imbalance >= 1.0

    def test_bbox_pruning_delegated(self, grid, transformer):
        store = ParallelRDFStore(GridPartitioner(grid, 8))
        pruned = store.partitions_for_bbox(BBox(22.5, 35.5, 23.0, 36.0))
        assert len(pruned) < 8
