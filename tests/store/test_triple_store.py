"""Single-partition triple store: all pattern shapes, vs brute force."""

import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store.triple_store import TripleStore
from tests.store.test_store_state import assert_same_match_order


@pytest.fixture()
def store():
    s = TripleStore()
    s.add(1, 10, 100)
    s.add(1, 10, 101)
    s.add(1, 11, 100)
    s.add(2, 10, 100)
    return s


class TestAddRemove:
    def test_add_counts(self, store):
        assert len(store) == 4

    def test_duplicate_add_ignored(self, store):
        assert not store.add(1, 10, 100)
        assert len(store) == 4

    def test_remove(self, store):
        assert store.remove(1, 10, 100)
        assert len(store) == 3
        assert not store.contains(1, 10, 100)

    def test_remove_absent(self, store):
        assert not store.remove(9, 9, 9)

    def test_contains(self, store):
        assert store.contains(2, 10, 100)
        assert not store.contains(2, 11, 100)


class TestMatchShapes:
    ALL = [(1, 10, 100), (1, 10, 101), (1, 11, 100), (2, 10, 100)]

    @pytest.mark.parametrize(
        "pattern",
        list(itertools.product([1, None], [10, None], [100, None])),
    )
    def test_every_shape_matches_brute_force(self, store, pattern):
        s, p, o = pattern
        expected = sorted(
            t for t in self.ALL
            if (s is None or t[0] == s)
            and (p is None or t[1] == p)
            and (o is None or t[2] == o)
        )
        assert sorted(store.match(s, p, o)) == expected

    def test_count_matches_agrees(self, store):
        for s in (1, 2, None):
            for p in (10, 11, None):
                for o in (100, 101, None):
                    assert store.count_matches(s, p, o) == len(list(store.match(s, p, o)))

    def test_subjects(self, store):
        assert sorted(store.subjects()) == [1, 2]


class TestRandomizedConsistency:
    @given(
        triples=st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 4), st.integers(0, 8)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_match_equals_reference_set(self, triples):
        store = TripleStore()
        reference = set()
        for s, p, o in triples:
            store.add(s, p, o)
            reference.add((s, p, o))
        assert len(store) == len(reference)
        assert set(store.match()) == reference
        # Spot-check bound patterns.
        s0, p0, o0 = triples[0]
        assert set(store.match(s=s0)) == {t for t in reference if t[0] == s0}
        assert set(store.match(p=p0)) == {t for t in reference if t[1] == p0}
        assert set(store.match(o=o0)) == {t for t in reference if t[2] == o0}

    @given(
        triples=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 5)),
            min_size=1,
            max_size=40,
        ),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_remove_maintains_indexes(self, triples, seed):
        store = TripleStore()
        reference = set()
        for t in triples:
            store.add(*t)
            reference.add(t)
        rng = np.random.default_rng(seed)
        doomed = [t for t in reference if rng.random() < 0.5]
        for t in doomed:
            store.remove(*t)
            reference.discard(t)
        assert set(store.match()) == reference
        for s, p, o in reference:
            assert store.contains(s, p, o)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(0, 6),
                st.integers(0, 3),
                st.integers(0, 6),
            ),
            max_size=60,
        )
    )
    def test_any_op_sequence_pickles_with_the_same_match_order(self, ops):
        store = TripleStore()
        for insert, s, p, o in ops:
            if insert:
                store.add_triples([(s, p, o)])
            else:
                store.remove(s, p, o)
        assert_same_match_order(pickle.loads(pickle.dumps(store)), store)
