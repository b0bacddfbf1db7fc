"""Store deletion and time-based retention."""

import pickle

import pytest

from repro.analysis.sanitizer import determinism_sanitizer
from repro.geo.bbox import BBox
from repro.geo.grid import GeoGrid
from repro.model.entities import Vessel
from repro.model.events import ComplexEvent
from repro.model.reports import PositionReport
from repro.rdf import vocabulary as V
from repro.rdf.transform import RdfTransformer, entity_iri, position_node_iri
from repro.store.parallel import ParallelRDFStore
from repro.store.partition import HilbertPartitioner
from tests.store.test_store_state import assert_same_match_order


@pytest.fixture()
def loaded():
    grid = GeoGrid(bbox=BBox(22.0, 35.0, 29.0, 41.0), nx=16, ny=16)
    transformer = RdfTransformer(st_grid=grid)
    store = ParallelRDFStore(HilbertPartitioner(grid, 4))
    store.add_document(transformer.entity_to_triples(Vessel("V1", "MV One")))
    for i in range(10):
        store.add_document(
            transformer.report_to_triples(
                PositionReport(
                    entity_id="V1", t=float(i * 100), lon=23.0 + 0.1 * i, lat=37.0,
                    speed=5.0, heading=90.0,
                )
            )
        )
    store.add_document(
        transformer.event_to_triples(
            ComplexEvent("collision_risk", ("V1", "V2"), 50.0, 60.0)
        )
    )
    return store


class TestRemoveSubject:
    def test_remove_one_node(self, loaded):
        before = len(loaded)
        node = position_node_iri("V1", 300.0)
        removed = loaded.remove_subject(node)
        assert removed > 0
        assert len(loaded) == before - removed
        assert list(loaded.match(node, None, None)) == []

    def test_remove_unknown_subject(self, loaded):
        assert loaded.remove_subject(position_node_iri("GHOST", 0.0)) == 0

    def test_reinsert_after_remove(self, loaded):
        grid = GeoGrid(bbox=BBox(22.0, 35.0, 29.0, 41.0), nx=16, ny=16)
        transformer = RdfTransformer(st_grid=grid)
        node = position_node_iri("V1", 300.0)
        loaded.remove_subject(node)
        doc = transformer.report_to_triples(
            PositionReport(entity_id="V1", t=300.0, lon=23.3, lat=37.0,
                           speed=5.0, heading=90.0)
        )
        loaded.add_document(doc)
        assert loaded.count(node, None, None) == len(doc)


class TestExpireBefore:
    def test_old_nodes_expire(self, loaded):
        subjects, triples = loaded.expire_before(500.0)
        assert subjects == 5  # nodes at t = 0..400
        assert triples > 0
        remaining = [
            float(t.o.value)
            for t in loaded.match(None, V.PROP_TIMESTAMP, None)
        ]
        assert all(ts >= 500.0 for ts in remaining)

    def test_entities_and_events_survive(self, loaded):
        loaded.expire_before(10_000.0)  # expire every position node
        assert loaded.count(entity_iri("V1"), None, None) > 0
        assert loaded.count(None, V.PROP_EVENT_TYPE, None) == 1

    def test_expire_empty_store(self):
        grid = GeoGrid(bbox=BBox(22.0, 35.0, 29.0, 41.0), nx=4, ny=4)
        store = ParallelRDFStore(HilbertPartitioner(grid, 2))
        assert store.expire_before(100.0) == (0, 0)

    def test_queries_consistent_after_expiry(self, loaded):
        from repro.query.executor import QueryExecutor

        loaded.expire_before(500.0)
        executor = QueryExecutor(loaded)
        trajectory = executor.entity_trajectory("V1")
        assert len(trajectory) == 5
        assert trajectory.start_time == 500.0


class TestRemovalSurvivesCheckpoint:
    """Deletions are logged as tombstones: a pickled store replays them."""

    @pytest.fixture(autouse=True)
    def sanitized(self):
        with determinism_sanitizer():
            yield

    @staticmethod
    def _assert_equal_stores(restored, original):
        assert len(restored) == len(original)
        assert [restored.dictionary.decode(i) for i in range(len(restored.dictionary))] == [
            original.dictionary.decode(i) for i in range(len(original.dictionary))
        ]
        assert restored._subject_partition == original._subject_partition
        for mine, theirs in zip(restored.partitions, original.partitions):
            assert_same_match_order(mine, theirs)
        assert list(restored.match()) == list(original.match())

    @pytest.mark.parametrize(
        "retire",
        [
            lambda store: store.remove_subject(position_node_iri("V1", 300.0)),
            lambda store: store.expire_before(500.0),
        ],
        ids=["remove_subject", "expire_before"],
    )
    def test_snapshot_after_removal_restores_equal(self, loaded, retire):
        retire(loaded)
        restored = pickle.loads(pickle.dumps(loaded, protocol=pickle.HIGHEST_PROTOCOL))
        self._assert_equal_stores(restored, loaded)
        assert restored.count(position_node_iri("V1", 300.0), None, None) == 0

    def test_removal_between_snapshots(self, loaded):
        """Snapshot, remove, snapshot again: the later file has the tombstones."""
        pickle.dumps(loaded)
        loaded.expire_before(500.0)
        restored = pickle.loads(pickle.dumps(loaded))
        self._assert_equal_stores(restored, loaded)
        # The restored store keeps retiring like the original.
        assert restored.expire_before(800.0) == loaded.expire_before(800.0)
        self._assert_equal_stores(restored, loaded)
