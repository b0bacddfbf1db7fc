"""The unified ``MobilityPipeline.run`` entry point and its option types.

These tests pin result equivalence between the execution modes that
``run(source, *, batch, checkpoints)`` selects, and the option
dataclasses' validation.
"""

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import BatchOptions, CheckpointOptions, MobilityPipeline
from repro.core.recordbatch import RecordBatch, recordbatches
from repro.sources.generators import MaritimeTrafficGenerator
from repro.streams.chaos import CrashInjector, InjectedCrash
from repro.streams.checkpoint import InMemoryCheckpointStore
from repro.streams.replay import ReplayLog


@pytest.fixture(scope="module")
def sample():
    return MaritimeTrafficGenerator(seed=42).generate(
        n_vessels=4, max_duration_s=1200.0
    )


def _pipeline(sample):
    return MobilityPipeline(
        bbox=sample.world.bbox,
        config=PipelineConfig(),
        registry=sample.registry,
        zones=sample.world.zones,
    )


class TestUnifiedRun:
    def test_batch_options_match_scalar_path(self, sample):
        scalar = _pipeline(sample).run(sample.reports)
        batched = _pipeline(sample).run(
            sample.reports, batch=BatchOptions(size=64)
        )
        assert batched.deterministic_digest() == scalar.deterministic_digest()

    def test_recordbatch_source_matches_batch_options(self, sample):
        via_options = _pipeline(sample).run(
            sample.reports, batch=BatchOptions(size=64)
        )
        via_batches = _pipeline(sample).run(sample.record_batches(64))
        assert (
            via_batches.deterministic_digest()
            == via_options.deterministic_digest()
        )

    def test_empty_source_finalizes(self, sample):
        result = _pipeline(sample).run([])
        assert result.reports_in == 0

    def test_checkpoints_saved_at_interval(self, sample):
        store = InMemoryCheckpointStore(retain=100)
        result = _pipeline(sample).run(
            sample.reports,
            checkpoints=CheckpointOptions(store=store, interval=50),
        )
        assert result.reports_in == len(sample.reports)
        latest = store.latest()
        assert latest is not None
        assert latest.source_offset == len(sample.reports) // 50 * 50

    def test_batched_checkpoints_land_on_batch_boundaries(self, sample):
        store = InMemoryCheckpointStore(retain=100)
        _pipeline(sample).run(
            sample.reports,
            batch=BatchOptions(size=64),
            checkpoints=CheckpointOptions(store=store, interval=100),
        )
        latest = store.latest()
        assert latest is not None
        assert latest.source_offset % 64 == 0

    def test_crash_and_resume_matches_uninterrupted(self, sample):
        full = _pipeline(sample).run(sample.reports)
        store = InMemoryCheckpointStore(retain=2)
        crash_at = len(sample.reports) * 2 // 3
        with pytest.raises(InjectedCrash):
            _pipeline(sample).run(
                CrashInjector(sample.reports, crash_at),
                checkpoints=CheckpointOptions(store=store, interval=40),
            )
        resumed = _pipeline(sample).run(
            ReplayLog(sample.reports),
            checkpoints=CheckpointOptions(store=store, resume=True),
        )
        assert resumed.deterministic_digest() == full.deterministic_digest()

    def test_resume_from_recordbatch_source(self, sample):
        """Resume flattens a RecordBatch source to skip the covered prefix."""
        full = _pipeline(sample).run(sample.reports)
        store = InMemoryCheckpointStore(retain=2)
        crash_at = len(sample.reports) * 2 // 3
        with pytest.raises(InjectedCrash):
            _pipeline(sample).run(
                CrashInjector(sample.reports, crash_at),
                checkpoints=CheckpointOptions(store=store, interval=40),
            )
        resumed = _pipeline(sample).run(
            list(sample.record_batches(64)),
            checkpoints=CheckpointOptions(store=store, resume=True),
        )
        assert resumed.deterministic_digest() == full.deterministic_digest()

    def test_resume_without_checkpoint_raises(self, sample):
        with pytest.raises(ValueError, match="no checkpoint"):
            _pipeline(sample).run(
                sample.reports,
                checkpoints=CheckpointOptions(
                    store=InMemoryCheckpointStore(), resume=True
                ),
            )


class TestOptionValidation:
    def test_batch_options_reject_nonpositive(self):
        with pytest.raises(ValueError, match="batch size"):
            BatchOptions(size=0)

    def test_checkpoint_options_reject_nonpositive_interval(self):
        with pytest.raises(ValueError, match="interval"):
            CheckpointOptions(store=InMemoryCheckpointStore(), interval=0)

    def test_checkpoint_options_require_interval_or_resume(self):
        with pytest.raises(ValueError, match="interval, resume=True"):
            CheckpointOptions(store=InMemoryCheckpointStore())

    def test_checkpoint_options_reject_negative_offset(self):
        with pytest.raises(ValueError, match="start_offset"):
            CheckpointOptions(
                store=InMemoryCheckpointStore(), interval=10, start_offset=-1
            )


class TestRecordBatchSources:
    def test_record_batches_offsets_are_consecutive(self, sample):
        batches = list(sample.record_batches(64))
        assert sum(len(b) for b in batches) == len(sample.reports)
        offset = 0
        for batch in batches:
            assert batch.offset == offset
            offset += len(batch)

    def test_record_batches_rejects_nonpositive_size(self, sample):
        with pytest.raises(ValueError, match="batch_size"):
            list(sample.record_batches(0))

    def test_recordbatches_helper_drops_empty_batches(self, sample):
        reports = sample.reports[:10]
        batches = list(recordbatches([reports[:4], [], reports[4:]], start_offset=5))
        assert [(b.offset, len(b)) for b in batches] == [(5, 4), (9, 6)]
        assert all(isinstance(b, RecordBatch) for b in batches)
