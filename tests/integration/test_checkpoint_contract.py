"""The serialize-once checkpoint contract, and what protects it on disk.

A pipeline checkpoint is *bytes*: ``MobilityPipeline.snapshot()`` is one
``pickle.dumps`` and ``restore()`` one ``pickle.loads``. That buys three
properties this file pins:

- **isolation** — a payload aliases no live state, so it can be restored
  any number of times and every continuation equals an uninterrupted run;
- **no object-graph copy** — neither direction reaches ``copy.deepcopy``;
- **store independence** — crash-resume through the in-memory and the
  file store yields the same bytes.

And because the payload is bytes, the file store can check it: a
truncated, bit-flipped or unreadable file raises
``CheckpointCorruptError`` and resume falls back to the newest checkpoint
that verifies. An intact payload of another format version is refused
with ``CheckpointVersionError`` before any component is touched — and
not passed over as corrupt.

The store's append-only parts (term dictionary, partition logs) encode
only what they gained since the previous snapshot, yet every payload
restores the store exactly: same ids, same ``match()`` order. The
executor's position column, derived from those logs, is never in a
payload: snapshots are the same size whether or not range queries ran,
and a restored pipeline answers its first range like the original.

Every test runs inside ``determinism_sanitizer()`` (CI runs this file in
its "Sanitizer differential arm" step as well): checkpointing must not
grow a clock or global-RNG dependency outside ``repro.obs``.
"""

import copy
import os
import pickle

import pytest

from repro.analysis.sanitizer import determinism_sanitizer
from repro.geo.bbox import BBox
from repro.core.pipeline import (
    _SNAPSHOT_HEADER,
    _SNAPSHOT_MAGIC,
    SNAPSHOT_FORMAT,
    BatchOptions,
    CheckpointOptions,
    MobilityPipeline,
)
from repro.obs.metrics import MetricsRegistry
from repro.query.executor import QueryExecutor
from repro.sources.generators import MaritimeTrafficGenerator
from repro.streams.chaos import CrashInjector, InjectedCrash
from repro.streams.checkpoint import (
    Checkpoint,
    CheckpointCorruptError,
    CheckpointVersionError,
    FileCheckpointStore,
    InMemoryCheckpointStore,
)
from repro.streams.replay import ReplayLog
from tests.store.test_store_state import assert_same_match_order


@pytest.fixture(autouse=True)
def sanitized():
    with determinism_sanitizer():
        yield


@pytest.fixture(scope="module")
def sample():
    return MaritimeTrafficGenerator(seed=31).generate(
        n_vessels=5, max_duration_s=1800.0
    )


@pytest.fixture(scope="module")
def reports(sample):
    return sorted(sample.reports, key=lambda r: r.t)


def _pipeline(sample, **kwargs):
    return MobilityPipeline(
        bbox=sample.world.bbox,
        registry=sample.registry,
        zones=sample.world.zones,
        **kwargs,
    )


@pytest.fixture(scope="module")
def uninterrupted(sample, reports):
    return _pipeline(sample).run(reports, batch=BatchOptions(size=64))


def _crash_then_resume(sample, reports, store, crash_after):
    crashed = _pipeline(sample)
    with pytest.raises(InjectedCrash):
        crashed.run(
            CrashInjector(reports, crash_after=crash_after),
            batch=BatchOptions(size=64),
            checkpoints=CheckpointOptions(store=store, interval=100),
        )
    return _pipeline(sample).run(
        ReplayLog(reports),
        batch=BatchOptions(size=64),
        checkpoints=CheckpointOptions(store=store, resume=True),
    )


class TestPayloadContract:
    def test_payload_is_bytes(self, sample, reports):
        pipeline = _pipeline(sample)
        pipeline.run(reports[:50])
        assert isinstance(pipeline.snapshot(), bytes)

    def test_one_payload_restores_twice(self, sample, reports, uninterrupted):
        """Neither later ingest nor an earlier restore can touch a payload."""
        cut = len(reports) // 3
        origin = _pipeline(sample)
        for batch_start in range(0, cut, 64):
            origin.process_batch(reports[batch_start : min(batch_start + 64, cut)])
        payload = origin.snapshot()
        # The snapshotting pipeline keeps going — into state the payload
        # must not share.
        origin.process_batch(reports[cut : cut + 200])

        digests = []
        for __ in range(2):
            target = _pipeline(sample)
            target.restore(payload)
            result = target.run(reports[cut:], batch=BatchOptions(size=64))
            digests.append(result.deterministic_digest())
        assert digests == [uninterrupted.deterministic_digest()] * 2

    def test_snapshot_restore_never_deepcopy(
        self, sample, reports, uninterrupted, monkeypatch
    ):
        calls = []

        def counting_deepcopy(obj, memo=None):
            calls.append(type(obj).__name__)
            raise AssertionError("checkpointing reached copy.deepcopy")

        monkeypatch.setattr(copy, "deepcopy", counting_deepcopy)
        result = _crash_then_resume(
            sample, reports, InMemoryCheckpointStore(), len(reports) // 2
        )
        assert calls == []
        assert result.deterministic_digest() == uninterrupted.deterministic_digest()

    def test_restore_rejects_payload_missing_a_component(self, sample):
        pipeline = _pipeline(sample)
        payload = pipeline.snapshot()
        header = payload[: len(_SNAPSHOT_HEADER)]
        assert header == _SNAPSHOT_HEADER
        states = pickle.loads(payload[len(header) :])
        del states["store"]
        with pytest.raises(KeyError, match="store"):
            pipeline.restore(header + pickle.dumps(states))

    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_crash_resume_identical_through_either_store(
        self, sample, reports, uninterrupted, backend, tmp_path
    ):
        store = (
            InMemoryCheckpointStore()
            if backend == "memory"
            else FileCheckpointStore(str(tmp_path))
        )
        result = _crash_then_resume(sample, reports, store, len(reports) * 2 // 3)
        assert 0 < store.latest().source_offset <= len(reports) * 2 // 3
        assert result.deterministic_bytes() == uninterrupted.deterministic_bytes()


class TestCheckpointCostIsVisible:
    def test_save_latency_and_bytes_recorded(self, sample, reports, uninterrupted):
        store = InMemoryCheckpointStore(retain=1000)
        pipeline = _pipeline(sample, metrics=MetricsRegistry(seed=3))
        result = pipeline.run(
            reports,
            batch=BatchOptions(size=64),
            checkpoints=CheckpointOptions(store=store, interval=100),
        )
        saved = [store.load(i) for i in store.checkpoint_ids()]
        assert len(saved) > 3
        assert pipeline.metrics.histogram("pipeline.checkpoint.save").count == len(saved)
        assert pipeline.metrics.counters()["pipeline.checkpoint.bytes"] == sum(
            len(c.states) for c in saved
        )
        # Execution accounting: what the run produced is unchanged.
        assert result.deterministic_bytes() == uninterrupted.deterministic_bytes()

    def test_disabled_registry_records_nothing(self, sample, reports):
        pipeline = _pipeline(sample, metrics=MetricsRegistry(enabled=False))
        pipeline.run(
            reports[:300],
            checkpoints=CheckpointOptions(
                store=InMemoryCheckpointStore(), interval=100
            ),
        )
        assert pipeline.metrics.counters() == {}


class TestFailClosed:
    @pytest.fixture()
    def crashed_dir(self, sample, reports, tmp_path):
        directory = str(tmp_path)
        with pytest.raises(InjectedCrash):
            _pipeline(sample).run(
                CrashInjector(reports, crash_after=len(reports) * 2 // 3),
                batch=BatchOptions(size=64),
                checkpoints=CheckpointOptions(
                    store=FileCheckpointStore(directory), interval=100
                ),
            )
        return directory

    def test_damaged_newest_falls_back_to_previous(
        self, sample, reports, uninterrupted, crashed_dir, damage_file
    ):
        store = FileCheckpointStore(crashed_dir)
        newest, previous = store.checkpoint_ids()[-1], store.checkpoint_ids()[-2]
        damage_file(store._path(newest))

        with pytest.raises(CheckpointCorruptError):
            store.load(newest)
        assert store.latest().checkpoint_id == previous
        assert store.corrupt_skipped == 1

        reopened = FileCheckpointStore(crashed_dir)
        result = _pipeline(sample).run(
            ReplayLog(reports),
            batch=BatchOptions(size=64),
            checkpoints=CheckpointOptions(store=reopened, resume=True),
        )
        assert reopened.corrupt_skipped == 1
        assert result.deterministic_bytes() == uninterrupted.deterministic_bytes()

    def test_nothing_verifies_means_nothing_to_resume(
        self, sample, reports, crashed_dir, damage_file
    ):
        store = FileCheckpointStore(crashed_dir)
        for checkpoint_id in store.checkpoint_ids():
            damage_file(store._path(checkpoint_id))
        assert store.latest() is None
        assert store.corrupt_skipped == len(store.checkpoint_ids())
        with pytest.raises(ValueError, match="no checkpoint"):
            _pipeline(sample).run(
                reports, checkpoints=CheckpointOptions(store=store, resume=True)
            )

    def test_unreadable_is_corrupt(self, tmp_path):
        store = FileCheckpointStore(str(tmp_path))
        for checkpoint_id in (0, 1):
            store.save(Checkpoint(checkpoint_id, source_offset=checkpoint_id, states=b"x"))
        # A directory under the file's name: open() fails, but not as "absent".
        os.remove(tmp_path / "checkpoint-1.pkl")
        os.mkdir(tmp_path / "checkpoint-1.pkl")
        with pytest.raises(CheckpointCorruptError, match="unreadable"):
            store.load(1)
        assert store.latest().checkpoint_id == 0

    def test_absent_is_not_corrupt(self, tmp_path):
        store = FileCheckpointStore(str(tmp_path))
        store.save(Checkpoint(checkpoint_id=0, source_offset=0, states=b"x"))
        with pytest.raises(KeyError):
            store.load(7)
        assert store.corrupt_skipped == 0


def _unversioned_payload(sample, reports):
    """The layout before the version field: a bare pickled component dict."""
    source = _pipeline(sample)
    source.process_batch(reports[:100])
    return pickle.dumps(
        {name: getattr(source, name) for name in source._STATEFUL_COMPONENTS}
    )


class TestAppendOnlyStateEncoding:
    """The store's dictionary and partitions pickle once, and faithfully."""

    def test_crash_resume_restores_the_store_exactly(
        self, sample, reports, uninterrupted, tmp_path
    ):
        whole = _pipeline(sample)
        whole.run(reports, batch=BatchOptions(size=64))
        store = FileCheckpointStore(str(tmp_path))
        crashed = _pipeline(sample)
        with pytest.raises(InjectedCrash):
            crashed.run(
                CrashInjector(reports, crash_after=len(reports) // 2),
                batch=BatchOptions(size=64),
                checkpoints=CheckpointOptions(store=store, interval=100),
            )
        resumed = _pipeline(sample)
        result = resumed.run(
            ReplayLog(reports),
            batch=BatchOptions(size=64),
            checkpoints=CheckpointOptions(store=store, resume=True),
        )
        assert result.deterministic_bytes() == uninterrupted.deterministic_bytes()

        mine, theirs = resumed.store, whole.store
        assert [mine.dictionary.decode(i) for i in range(len(mine.dictionary))] == [
            theirs.dictionary.decode(i) for i in range(len(theirs.dictionary))
        ]
        assert len(mine.partitions) == len(theirs.partitions)
        for restored, original in zip(mine.partitions, theirs.partitions):
            assert_same_match_order(restored, original)

    def test_snapshots_encode_only_what_was_added(self, sample, reports):
        pipeline = _pipeline(sample)
        dictionary = pipeline.store.dictionary
        pipeline.process_batch(reports[:200])
        pipeline.snapshot()
        chunks = len(dictionary._chunks)
        logs = [len(p._log) for p in pipeline.store.partitions]

        pipeline.snapshot()
        assert len(dictionary._chunks) == chunks
        assert [len(p._log) for p in pipeline.store.partitions] == logs

        sealed = len(dictionary)
        pipeline.process_batch(reports[200:400])
        added = len(dictionary) - sealed
        assert added > 0
        pipeline.snapshot()
        assert len(dictionary._chunks) == chunks + 1
        assert pickle.loads(dictionary._chunks[-1]) == [
            dictionary.decode(i) for i in range(sealed, sealed + added)
        ]

    def test_a_run_without_checkpoints_seals_nothing(self, sample, reports):
        pipeline = _pipeline(sample)
        pipeline.run(reports[:300], batch=BatchOptions(size=64))
        assert pipeline.store.dictionary._chunks == []


class TestFormatVersion:
    def test_payload_leads_with_the_version(self, sample):
        payload = _pipeline(sample).snapshot()
        assert payload.startswith(_SNAPSHOT_HEADER)
        assert SNAPSHOT_FORMAT == 3

    def test_list_event_format_is_refused_before_any_component_is_touched(
        self, sample, reports
    ):
        """Version 2 pickled ``simple_events`` as a plain list: restoring it
        would only fail at the first columnar batch, so it is refused."""
        source = _pipeline(sample)
        source.run(reports[:200], batch=BatchOptions(size=64))
        payload = source.snapshot()
        v2 = _SNAPSHOT_MAGIC + (2).to_bytes(2, "big") + payload[len(_SNAPSHOT_HEADER) :]
        target = _pipeline(sample)
        store_before, result_before = target.store, target.result
        with pytest.raises(CheckpointVersionError) as raised:
            target.restore(v2)
        assert (raised.value.found, raised.value.expected) == (2, 3)
        assert target.store is store_before and target.result is result_before

    def test_event_log_survives_restore_and_keeps_growing(self, sample, reports, uninterrupted):
        source = _pipeline(sample)
        source.run(reports[:256], batch=BatchOptions(size=64))
        target = _pipeline(sample)
        target.restore(source.snapshot())
        assert target.result.simple_events == source.result.simple_events
        for start in range(256, len(reports), 64):
            target.process_batch(reports[start : start + 64])
        assert target.result.simple_events == uninterrupted.simple_events

    def test_parent_format_is_refused_before_any_component_is_touched(
        self, sample, reports
    ):
        target = _pipeline(sample)
        store_before = target.store
        with pytest.raises(CheckpointVersionError) as raised:
            target.restore(_unversioned_payload(sample, reports))
        assert (raised.value.found, raised.value.expected) == (1, SNAPSHOT_FORMAT)
        assert "version 1" in str(raised.value) and f"version {SNAPSHOT_FORMAT}" in str(
            raised.value
        )
        assert target.store is store_before

    def test_newer_format_is_refused(self, sample):
        payload = _pipeline(sample).snapshot()
        skewed = (
            _SNAPSHOT_MAGIC
            + (SNAPSHOT_FORMAT + 1).to_bytes(2, "big")
            + payload[len(_SNAPSHOT_HEADER) :]
        )
        with pytest.raises(CheckpointVersionError) as raised:
            _pipeline(sample).restore(skewed)
        assert raised.value.found == SNAPSHOT_FORMAT + 1

    def test_version_error_is_not_corruption(self):
        error = CheckpointVersionError(1, SNAPSHOT_FORMAT)
        assert isinstance(error, ValueError)
        assert not isinstance(error, CheckpointCorruptError)
        clone = pickle.loads(pickle.dumps(error))
        assert (clone.found, clone.expected, str(clone)) == (1, SNAPSHOT_FORMAT, str(error))

    def test_skewed_file_is_neither_skipped_nor_counted_corrupt(
        self, sample, reports, tmp_path
    ):
        unversioned = _unversioned_payload(sample, reports)
        store = FileCheckpointStore(str(tmp_path))
        for checkpoint_id in (0, 1):
            store.save(Checkpoint(checkpoint_id, source_offset=100, states=unversioned))

        reopened = FileCheckpointStore(str(tmp_path))
        with pytest.raises(CheckpointVersionError):
            _pipeline(sample).run(
                ReplayLog(reports),
                checkpoints=CheckpointOptions(store=reopened, resume=True),
            )
        assert reopened.corrupt_skipped == 0
        assert reopened.latest().checkpoint_id == 1


class TestPositionColumnIsNotCheckpointed:
    """The executor's position column is derived read-path state: never pickled."""

    BOX = BBox(23.0, 36.0, 26.0, 39.0)

    def _queried(self, executor, reports):
        """The reports, with a range query through ``executor`` every 64."""
        for index, report in enumerate(reports):
            if index % 64 == 0:
                executor.range_query(self.BOX)
            yield report

    def test_snapshot_is_the_same_whether_or_not_ranges_ran(self, sample, reports):
        plain = _pipeline(sample, metrics=MetricsRegistry(enabled=False))
        plain.run(reports[:400], batch=BatchOptions(size=64))
        queried = _pipeline(sample, metrics=MetricsRegistry(enabled=False))
        queried.run(self._queried(queried.executor, reports[:400]), batch=BatchOptions(size=64))
        assert queried.executor.range_query(self.BOX)[0]
        assert len(queried.snapshot()) == len(plain.snapshot())
        # Only the run's wall time (execution accounting) differs.
        for name in queried._STATEFUL_COMPONENTS:
            if name != "_result":
                assert pickle.dumps(getattr(queried, name)) == pickle.dumps(
                    getattr(plain, name)
                ), name

    def test_checkpoint_bytes_are_the_same_whether_or_not_ranges_ran(self, sample, reports):
        counted = []
        for query in (False, True):
            pipeline = _pipeline(sample, metrics=MetricsRegistry(seed=3))
            # A registry-less executor over the same store: its column is
            # over the very partitions the checkpoints pickle, and no query
            # histogram lands in the pickled registry.
            source = (
                self._queried(QueryExecutor(pipeline.store), reports) if query else reports
            )
            pipeline.run(
                source,
                batch=BatchOptions(size=64),
                checkpoints=CheckpointOptions(store=InMemoryCheckpointStore(), interval=100),
            )
            counted.append(pipeline.metrics.counters()["pipeline.checkpoint.bytes"])
        assert counted[0] == counted[1]

    def test_restored_pipeline_answers_its_first_range_like_the_original(
        self, sample, reports
    ):
        cut = len(reports) // 2
        origin = _pipeline(sample)
        origin.run(self._queried(origin.executor, reports[:cut]), batch=BatchOptions(size=64))
        payload = origin.snapshot()
        target = _pipeline(sample)
        target.restore(payload)
        for __ in range(2):
            nodes, report = target.executor.range_query(self.BOX, 0.0, 1200.0)
            expected, expected_report = origin.executor.range_query(self.BOX, 0.0, 1200.0)
            assert nodes and nodes == expected
            assert report.deterministic_payload() == expected_report.deterministic_payload()
            # Both columns catch up with the same further writes.
            for pipeline in (origin, target):
                pipeline.run(reports[cut : cut + 128], batch=BatchOptions(size=64))
