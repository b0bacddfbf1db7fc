"""The lazily indexed triple store reads exactly like the eager one.

A partition's writes only append to its log; its SPO/POS/OSP indexes are
built from the log by the first read after the writes. A hypothesis state
machine interleaves every write (``add_triples`` of lists and of
generators, duplicates included, ``add``, ``remove`` of present and
absent triples) with every read (all eight ``match`` shapes,
``objects``, ``contains``, ``count_matches``, ``len``, ``subjects``),
pickle round trips, and ``copy.copy``/``deepcopy`` clones that are then
written to. Beside each store runs the eager store of
``tests/store/reference.py``; after every step both must give the same
results in the same order and hold the same log, and every read must
have applied each log entry exactly once. Every step runs under
``determinism_sanitizer()``; CI runs this file in its "Sanitizer
differential arm" step.

The rest of the file pins where index work happens in a pipeline: an
ingest builds no index, a restore applies nothing, and the first read
after a restore catches each partition up once.
"""

from __future__ import annotations

import copy
import gc
import pickle

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.analysis.sanitizer import determinism_sanitizer
from repro.core.pipeline import BatchOptions, MobilityPipeline
from repro.geo.bbox import BBox
from repro.model.points import Domain
from repro.sources.generators import AviationTrafficGenerator
from repro.store.triple_store import TripleStore
from tests.store.reference import EagerTripleStore

_APPLY = TripleStore._apply

#: Few ids, so triples collide, repeat and get removed and re-added.
ids = st.integers(0, 5)
triples = st.tuples(ids, st.integers(0, 2), ids)
maybe = st.one_of(st.none(), ids)
stores = st.integers(0, 7)


class LazyIndexMachine(RuleBasedStateMachine):
    """Pairs of (lazy, eager) stores; clones add pairs."""

    def __init__(self) -> None:
        super().__init__()
        self.pairs = [(TripleStore(), EagerTripleStore())]
        self.applied: dict[TripleStore, int] = {}

        def counting(store: TripleStore, entries) -> None:
            self.applied[store] = self.applied.get(store, 0) + len(entries)
            _APPLY(store, entries)

        TripleStore._apply = counting  # type: ignore[method-assign]

    def teardown(self) -> None:
        TripleStore._apply = _APPLY  # type: ignore[method-assign]

    def _pair(self, which: int) -> tuple[TripleStore, EagerTripleStore]:
        return self.pairs[which % len(self.pairs)]

    def _read(self, which: int, read) -> None:
        lazy, eager = self._pair(which)
        with determinism_sanitizer():
            got, expected = read(lazy), read(eager)
        assert got == expected
        # Every log entry was applied, and none twice.
        assert self.applied.get(lazy, 0) == len(lazy.log_tail(0))

    # -- writes ---------------------------------------------------------------

    @rule(which=stores, batch=st.lists(triples, max_size=8), as_generator=st.booleans())
    def add_triples(self, which: int, batch: list, as_generator: bool) -> None:
        lazy, eager = self._pair(which)
        with determinism_sanitizer():
            lazy.add_triples(iter(batch) if as_generator else batch)
            eager.add_triples(iter(batch) if as_generator else batch)

    @rule(which=stores, triple=triples)
    def add(self, which: int, triple: tuple[int, int, int]) -> None:
        lazy, eager = self._pair(which)
        with determinism_sanitizer():
            assert lazy.add(*triple) == eager.add(*triple)

    @rule(which=stores, data=st.data())
    def remove(self, which: int, data: st.DataObject) -> None:
        lazy, eager = self._pair(which)
        present = list(eager.match())
        triple = data.draw(st.sampled_from(present) if present else triples)
        if data.draw(st.booleans()):
            triple = data.draw(triples)  # often absent
        with determinism_sanitizer():
            assert lazy.remove(*triple) == eager.remove(*triple)

    # -- copies -----------------------------------------------------------------

    @rule(which=stores, protocol=st.integers(0, pickle.HIGHEST_PROTOCOL))
    def pickle_round_trip(self, which: int, protocol: int) -> None:
        """The eager store goes at the highest protocol: at protocols 0
        and 1 an empty one comes back with no attributes."""
        index = which % len(self.pairs)
        lazy, eager = self.pairs[index]
        with determinism_sanitizer():
            self.pairs[index] = (
                pickle.loads(pickle.dumps(lazy, protocol=protocol)),
                pickle.loads(pickle.dumps(eager, protocol=pickle.HIGHEST_PROTOCOL)),
            )

    @rule(which=stores, deep=st.booleans())
    def clone(self, which: int, deep: bool) -> None:
        """The clone is a new pair; later writes to it must not reach the original."""
        clone = copy.deepcopy if deep else copy.copy
        with determinism_sanitizer():
            self.pairs.append(tuple(clone(store) for store in self._pair(which)))  # type: ignore[arg-type]

    # -- reads ----------------------------------------------------------------

    @rule(which=stores, s=maybe, p=st.one_of(st.none(), st.integers(0, 2)), o=maybe)
    def match(self, which: int, s: int | None, p: int | None, o: int | None) -> None:
        self._read(which, lambda store: list(store.match(s, p, o)))

    @rule(which=stores, s=maybe, p=st.one_of(st.none(), st.integers(0, 2)), o=maybe)
    def count_matches(self, which: int, s: int | None, p: int | None, o: int | None) -> None:
        self._read(which, lambda store: store.count_matches(s, p, o))

    @rule(which=stores, s=ids, p=st.integers(0, 2))
    def objects(self, which: int, s: int, p: int) -> None:
        self._read(which, lambda store: list(store.objects(s, p)))

    @rule(which=stores, triple=triples)
    def contains(self, which: int, triple: tuple[int, int, int]) -> None:
        self._read(which, lambda store: store.contains(*triple))

    @rule(which=stores)
    def length(self, which: int) -> None:
        self._read(which, len)

    @rule(which=stores)
    def subjects(self, which: int) -> None:
        self._read(which, lambda store: list(store.subjects()))

    @invariant()
    def logs_are_equal(self) -> None:
        for lazy, eager in self.pairs:
            assert lazy.log_tail(0) == eager.log_tail(0)


LazyIndexMachine.TestCase.settings = settings(
    max_examples=150,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_lazy_index_matches_eager_store = LazyIndexMachine.TestCase


# -- where index work happens in a pipeline --------------------------------------


@pytest.fixture
def applied(monkeypatch: pytest.MonkeyPatch) -> list[TripleStore]:
    """Every partition that applied log entries, once per catch-up."""
    calls: list[TripleStore] = []

    def counting(store: TripleStore, entries) -> None:
        calls.append(store)
        _APPLY(store, entries)

    monkeypatch.setattr(TripleStore, "_apply", counting)
    return calls


@pytest.fixture(scope="module")
def flights():
    sample = AviationTrafficGenerator(seed=3).generate(n_flights=4)
    return sample, sorted(sample.reports, key=lambda r: r.t)[:1500]


def _pipeline(sample) -> MobilityPipeline:
    return MobilityPipeline(
        bbox=sample.world.bbox,
        registry=sample.registry,
        zones=list(sample.world.sectors),
        domain=Domain.AVIATION,
    )


@pytest.mark.parametrize("batch_size", [256, None])
def test_ingest_builds_no_index(flights, applied, batch_size):
    sample, reports = flights
    pipeline = _pipeline(sample)
    with determinism_sanitizer():
        result = pipeline.run(reports, batch=BatchOptions(size=batch_size) if batch_size else None)
    assert result.triples_stored > 0
    assert applied == []


def test_restore_applies_nothing_and_the_first_read_catches_up_once(flights, applied):
    sample, reports = flights
    pipeline = _pipeline(sample)
    with determinism_sanitizer():
        pipeline.run(reports, batch=BatchOptions(size=256))
        payload = pipeline.snapshot()
        restored = _pipeline(sample)
        restored.restore(payload)
    assert applied == []
    box = BBox(-180.0, -90.0, 180.0, 90.0)
    with determinism_sanitizer():
        nodes, __ = restored.executor.range_query(box)
    assert nodes
    partitions = [p for p in restored.store.partitions if len(p.log_tail(0))]
    assert sorted(map(id, applied)) == sorted(map(id, partitions))
    applied.clear()
    with determinism_sanitizer():
        assert restored.executor.range_query(box)[0] == nodes
    assert applied == []



@pytest.mark.parametrize("collecting", [True, False])
def test_catch_up_pauses_the_collector_and_restores_it(monkeypatch, collecting):
    store = TripleStore()
    store.add_triples([(1, 2, 3), (4, 5, 6)])
    seen: list[bool] = []

    def spy(self: TripleStore, entries) -> None:
        seen.append(gc.isenabled())
        _APPLY(self, entries)

    monkeypatch.setattr(TripleStore, "_apply", spy)
    was = gc.isenabled()
    try:
        gc.enable() if collecting else gc.disable()
        assert len(store) == 2
        assert gc.isenabled() is collecting
    finally:
        gc.enable() if was else gc.disable()
    assert seen == [False]
