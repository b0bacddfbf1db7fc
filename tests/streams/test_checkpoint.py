"""Checkpoint stores and the replay log."""

import os

import pytest

from repro.streams.checkpoint import (
    Checkpoint,
    FileCheckpointStore,
    InMemoryCheckpointStore,
)
from repro.streams.replay import ReplayLog


class TestCheckpointStores:
    def _checkpoint(self, cid, offset=0):
        return Checkpoint(checkpoint_id=cid, source_offset=offset, states={"s": cid})

    def test_in_memory_retention_and_latest(self):
        store = InMemoryCheckpointStore(retain=2)
        for cid in range(5):
            store.save(self._checkpoint(cid, offset=cid * 10))
        assert store.checkpoint_ids() == [3, 4]
        assert store.latest().source_offset == 40
        with pytest.raises(KeyError):
            store.load(0)

    def test_next_id_monotone(self):
        store = InMemoryCheckpointStore()
        assert store.next_id() == 0
        store.save(self._checkpoint(store.next_id()))
        store.save(self._checkpoint(store.next_id()))
        assert store.next_id() == 2

    def test_file_store_round_trip(self, tmp_path):
        store = FileCheckpointStore(str(tmp_path), retain=2)
        for cid in range(4):
            store.save(self._checkpoint(cid, offset=cid))
        assert store.checkpoint_ids() == [2, 3]
        # A fresh store over the same directory sees the survivors.
        reopened = FileCheckpointStore(str(tmp_path))
        assert reopened.checkpoint_ids() == [2, 3]
        assert reopened.latest().states == {"s": 3}
        assert reopened.next_id() == 4

    def test_file_store_sweeps_orphaned_tmp_at_open(self, tmp_path):
        """A crash between write and rename leaves a ``.tmp``; reopen removes it."""
        store = FileCheckpointStore(str(tmp_path))
        store.save(self._checkpoint(0))
        orphan = tmp_path / "checkpoint-1.pkl.tmp"
        orphan.write_bytes(b"half a checkpoint")
        unrelated = tmp_path / "notes.tmp"
        unrelated.write_bytes(b"not ours")

        reopened = FileCheckpointStore(str(tmp_path))
        assert not orphan.exists()
        assert unrelated.exists()
        assert reopened.checkpoint_ids() == [0]
        assert reopened.next_id() == 1
        reopened.save(self._checkpoint(1))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint-0.pkl",
            "checkpoint-1.pkl",
            "notes.tmp",
        ]

    def test_file_store_lists_directory_once(self, tmp_path, monkeypatch):
        """Ids live in memory after open: saving and asking never re-list."""
        listings = []
        real_listdir = os.listdir
        monkeypatch.setattr(
            os, "listdir", lambda path: listings.append(path) or real_listdir(path)
        )
        store = FileCheckpointStore(str(tmp_path), retain=2)
        for __ in range(5):
            store.save(self._checkpoint(store.next_id()))
        assert store.checkpoint_ids() == [3, 4]
        assert listings == [str(tmp_path)]
        assert sorted(real_listdir(tmp_path)) == ["checkpoint-3.pkl", "checkpoint-4.pkl"]

    def test_file_store_ignores_names_it_never_writes(self, tmp_path):
        """Only ``checkpoint-<digits>.pkl`` is a checkpoint; anything else is left be."""
        store = FileCheckpointStore(str(tmp_path))
        store.save(self._checkpoint(2))
        for stray in ("checkpoint-latest.pkl", "checkpoint--1.pkl", "checkpoint-+3.pkl"):
            (tmp_path / stray).write_bytes(b"not a checkpoint")

        reopened = FileCheckpointStore(str(tmp_path))
        assert reopened.checkpoint_ids() == [2]
        assert reopened.latest().checkpoint_id == 2
        assert (tmp_path / "checkpoint-latest.pkl").exists()

    def test_file_store_resave_same_id_keeps_one_entry(self, tmp_path):
        store = FileCheckpointStore(str(tmp_path))
        store.save(self._checkpoint(0, offset=1))
        store.save(self._checkpoint(0, offset=2))
        assert store.checkpoint_ids() == [0]
        assert store.latest().source_offset == 2

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            Checkpoint(checkpoint_id=0, source_offset=-1, states={})


class TestReplayLog:
    def test_read_from_offset(self):
        log = ReplayLog(["a", "b", "c"])
        assert len(log) == 3
        assert list(log.read(1)) == ["b", "c"]
        assert list(log) == ["a", "b", "c"]
        assert list(log.read(3)) == []

    def test_negative_offset_rejected(self):
        log = ReplayLog([1, 2, 3])
        with pytest.raises(ValueError):
            list(log.read(-1))
