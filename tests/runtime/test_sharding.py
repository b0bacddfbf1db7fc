"""Routing properties: stability, totality, resharding, skew."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import stable_hash, stable_shard
from repro.model.reports import PositionReport
from repro.runtime.sharding import ShardRouter

keys = st.one_of(
    st.text(max_size=30),
    st.integers(),
    st.binary(max_size=30),
    st.tuples(st.text(max_size=10), st.integers()),
)


def report(entity_id: str, t: float = 0.0) -> PositionReport:
    return PositionReport(entity_id=entity_id, t=t, lon=24.5, lat=37.5)


class TestStableHash:
    def test_known_values(self):
        """Pinned CRC-32 values: any interpreter must reproduce these."""
        assert stable_hash("V001") == 1708219451
        assert stable_hash(b"V001") == 1708219451
        assert stable_hash("") == 0
        assert stable_hash(7) == stable_hash("7")

    def test_bool_not_conflated_with_int(self):
        assert stable_hash(True) != stable_hash(1)

    def test_unhashable_types_rejected(self):
        with pytest.raises(TypeError):
            stable_hash(3.14)
        with pytest.raises(TypeError):
            stable_hash(["list"])

    @given(keys)
    @settings(max_examples=200)
    def test_deterministic_within_process(self, key):
        assert stable_hash(key) == stable_hash(key)

    @given(keys, st.integers(min_value=1, max_value=64))
    @settings(max_examples=200)
    def test_shard_in_range(self, key, n):
        assert 0 <= stable_shard(key, n) < n

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError):
            stable_shard("x", 0)


class TestShardRouter:
    @given(
        st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=60),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=100)
    def test_partition_is_total_and_order_preserving(self, ids, n):
        """Every record lands in exactly one shard; shard order = arrival order."""
        reports = [report(e, t=float(i)) for i, e in enumerate(ids)]
        parts = ShardRouter(n).partition(reports)
        assert len(parts) == n
        flat = [r for part in parts for r in part]
        assert sorted(flat, key=lambda r: r.t) == reports
        assert len(flat) == len(reports)
        for part in parts:
            assert [r.t for r in part] == sorted(r.t for r in part)

    @given(
        st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=60),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=100)
    def test_total_under_resharding(self, ids, n1, n2):
        """Resharding redistributes keys but never loses or duplicates one."""
        reports = [report(e, t=float(i)) for i, e in enumerate(ids)]
        router = ShardRouter(n1)
        resharded = router.reshard(n2)
        assert resharded.n_shards == n2
        assert resharded.key_fn is router.key_fn
        count_a = sum(len(p) for p in router.partition(reports))
        count_b = sum(len(p) for p in resharded.partition(reports))
        assert count_a == count_b == len(reports)

    @given(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=40))
    @settings(max_examples=100)
    def test_key_affinity(self, ids):
        """All of one entity's records land on the same shard."""
        reports = [report(e, t=float(i)) for i, e in enumerate(ids)]
        router = ShardRouter(4)
        for part_idx, part in enumerate(router.partition(reports)):
            for r in part:
                assert router.route(r) == part_idx
                assert router.shard_of_key(r.entity_id) == part_idx

    def test_single_shard_takes_everything(self):
        reports = [report(f"V{i}") for i in range(20)]
        parts = ShardRouter(1).partition(reports)
        assert [len(p) for p in parts] == [20]

    def test_skew_of_even_and_degenerate_streams(self):
        even = [report(f"V{i:04d}") for i in range(400)]
        assert ShardRouter(4).skew(even) < 2.0
        hot = [report("HOT") for __ in range(100)]
        assert ShardRouter(4).skew(hot) == 4.0

    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(ValueError):
            ShardRouter(0)
