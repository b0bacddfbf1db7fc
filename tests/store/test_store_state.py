"""How the store's append-only parts pickle: once, and faithfully.

The term dictionary pickles as sealed chunks — each the pickled run of
terms assigned since the previous pickling — and a partition as its
insert/remove log. These tests pin both halves of that contract:

- **incremental**: a pickling with nothing new seals nothing; N new terms
  seal exactly one chunk holding exactly those N;
- **faithful**: unpickling replays the log through the same insert/remove
  code, so every index comes back with the same iteration order — every
  ``match()`` shape yields the same sequence — removals included;
- **complete**: ``add_triples`` logs what it inserts even when handed a
  one-shot generator.

Every test runs inside ``determinism_sanitizer()`` (CI runs this file in
its "Sanitizer differential arm" step as well): encoding state must not
read a clock or draw from the global RNG.
"""

import copy
import itertools
import pickle
import random

import pytest

from repro.analysis.sanitizer import determinism_sanitizer
from repro.rdf.terms import IRI, BlankNode, Literal
from repro.store.dictionary import TermDictionary
from repro.store.triple_store import TripleStore


@pytest.fixture(autouse=True)
def sanitized():
    with determinism_sanitizer():
        yield


def _shapes(triple):
    """All eight bound/unbound patterns of one triple."""
    for mask in itertools.product((False, True), repeat=3):
        yield tuple(value if bound else None for value, bound in zip(triple, mask))


def assert_same_match_order(restored, original):
    assert len(restored) == len(original)
    probes = list(original.match())
    assert list(restored.match()) == probes
    for triple in probes[:: max(1, len(probes) // 25)] + [(10**6, 10**6, 10**6)]:
        for pattern in _shapes(triple):
            assert list(restored.match(*pattern)) == list(original.match(*pattern))
            assert restored.count_matches(*pattern) == original.count_matches(*pattern)


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _churned_store(seed, n=400):
    """Inserts, duplicate inserts and removals, interleaved."""
    rng = random.Random(seed)
    store = TripleStore()
    live = []
    for __ in range(n):
        roll = rng.random()
        if roll < 0.15 and live:
            store.remove(*live.pop(rng.randrange(len(live))))
        elif roll < 0.25:
            store.add(rng.randrange(30), rng.randrange(5), rng.randrange(30))
        else:
            batch = [
                (rng.randrange(30), rng.randrange(5), rng.randrange(30))
                for __ in range(rng.randrange(1, 6))
            ]
            store.add_triples(batch)
            live.extend(batch)
    return store


class TestTripleStoreLog:
    def test_empty_store_round_trips(self):
        restored = _roundtrip(TripleStore())
        assert len(restored) == 0
        assert list(restored.match()) == []

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_replay_gives_the_same_match_order(self, seed):
        original = _churned_store(seed)
        assert_same_match_order(_roundtrip(original), original)

    def test_removal_is_a_tombstone(self):
        store = TripleStore()
        store.add_triples([(0, 1, 2), (3, 4, 5)])
        assert store.remove(0, 1, 2)
        assert not store.remove(0, 1, 2)  # absent: nothing to log
        assert list(store._log) == [0, 1, 2, 3, 4, 5, ~0, 1, 2]
        restored = _roundtrip(store)
        assert list(restored.match()) == [(3, 4, 5)]
        assert list(restored._log) == list(store._log)

    def test_restored_store_keeps_logging(self):
        original = _churned_store(7)
        restored = _roundtrip(original)
        for s in (original, restored):
            s.add_triples([(99, 1, 98), (98, 1, 99)])
            s.remove(99, 1, 98)
        assert_same_match_order(_roundtrip(restored), original)

    def test_payload_aliases_nothing(self):
        store = TripleStore()
        store.add_triples([(1, 2, 3)])
        payload = pickle.dumps(store)
        store.add_triples([(4, 5, 6)])
        assert list(pickle.loads(payload).match()) == [(1, 2, 3)]

    def test_copies_are_independent(self):
        original = _churned_store(11)
        for clone in (copy.copy(original), copy.deepcopy(original)):
            assert_same_match_order(clone, original)
            clone.add(500, 1, 500)
            assert not original.contains(500, 1, 500)

    def test_generator_is_inserted_and_logged(self):
        triples = [(1, 10, 100), (1, 10, 101), (2, 11, 100), (1, 10, 100)]
        store = TripleStore()
        assert store.add_triples(t for t in triples) == 3
        assert sorted(store.match()) == sorted(set(triples))
        assert list(store._log) == [x for t in triples for x in t]
        assert_same_match_order(_roundtrip(store), store)


def _terms(start, n):
    kinds = (
        lambda i: IRI(f"http://x/{i}"),
        lambda i: Literal(float(i), "http://www.w3.org/2001/XMLSchema#double"),
        lambda i: BlankNode(f"b{i}"),
    )
    return [kinds[i % 3](i) for i in range(start, start + n)]


class TestDictionaryChunks:
    def test_never_pickled_allocates_no_chunk(self):
        d = TermDictionary()
        d.encode_many(_terms(0, 50))
        assert d._chunks == []

    def test_nothing_new_seals_nothing(self):
        d = TermDictionary()
        d.encode_many(_terms(0, 20))
        first = pickle.dumps(d)
        second = pickle.dumps(d)
        assert len(d._chunks) == 1
        assert first == second

    def test_new_terms_seal_exactly_one_chunk_of_exactly_them(self):
        d = TermDictionary()
        d.encode_many(_terms(0, 20))
        pickle.dumps(d)
        d.encode(_terms(0, 1)[0])  # already known: not new
        d.encode_many(_terms(20, 7))
        pickle.dumps(d)
        assert len(d._chunks) == 2
        assert pickle.loads(d._chunks[-1]) == _terms(20, 7)

    def test_round_trip_keeps_ids_and_insertion_order(self):
        d = TermDictionary()
        d.encode_many(_terms(0, 30))
        pickle.dumps(d)
        d.encode_many(_terms(30, 30))
        restored = _roundtrip(d)
        assert [restored.decode(i) for i in range(len(restored))] == _terms(0, 60)
        assert list(restored._by_term.items()) == list(d._by_term.items())
        # The restored dictionary continues where the original left off,
        # and its own next pickling adds one chunk, not a re-encoding.
        assert restored.encode(IRI("http://x/new")) == 60
        pickle.dumps(restored)
        assert len(restored._chunks) == len(d._chunks) + 1
        assert pickle.loads(restored._chunks[-1]) == [IRI("http://x/new")]

    def test_empty_dictionary_round_trips(self):
        restored = _roundtrip(TermDictionary())
        assert len(restored) == 0
        assert restored.encode(IRI("http://x/a")) == 0
