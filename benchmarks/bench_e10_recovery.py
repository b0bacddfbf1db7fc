"""E10 — checkpoint overhead and recovery cost of the streaming tier.

The paper requires operational (ms) latency "without affecting quality of
analytics"; fault tolerance must not eat that budget. Measures:

- end-to-end pipeline wall time at several checkpoint intervals (the
  overhead of taking barriers), and
- recovery cost: resuming from the last checkpoint after a crash at 2/3
  of the stream vs rerunning from scratch, with the work saved.

Expected shape: overhead grows as the interval shrinks (each barrier
serializes all operator state in one ``pickle.dumps``; the RDF store's
dictionary and partitions re-encode only what they gained since the
previous barrier, so the run result's event list and the enabled
registry dominate); resume time stays well under a full rerun and saves
~ the checkpointed prefix.
"""

import time

import pytest

from benchmarks.conftest import emit_table
from repro.core.config import PipelineConfig
from repro.core.pipeline import CheckpointOptions, MobilityPipeline
from repro.streams.chaos import CrashInjector, InjectedCrash
from repro.streams.checkpoint import InMemoryCheckpointStore
from repro.streams.replay import ReplayLog


def _fresh_pipeline(sample):
    return MobilityPipeline(
        bbox=sample.world.bbox,
        config=PipelineConfig(),
        registry=sample.registry,
        zones=sample.world.zones,
    )


def test_e10_checkpoint_overhead(maritime_fleet):
    reports = sorted(maritime_fleet.reports, key=lambda r: r.t)
    rows = []

    baseline = _fresh_pipeline(maritime_fleet).run(reports)
    rows.append(["none", 0, baseline.wall_time_s, 0.0])

    for interval in (2000, 500, 100):
        store = InMemoryCheckpointStore(retain=2)
        result = _fresh_pipeline(maritime_fleet).run(
            reports, checkpoints=CheckpointOptions(store=store, interval=interval)
        )
        n_checkpoints = len(reports) // interval
        overhead = (result.wall_time_s / baseline.wall_time_s - 1.0) * 100.0
        rows.append([str(interval), n_checkpoints, result.wall_time_s, overhead])
        assert result.triples_stored == baseline.triples_stored

    emit_table(
        "e10_checkpoint_overhead",
        "E10: pipeline wall time vs checkpoint interval",
        ["interval", "checkpoints", "wall_s", "overhead_%"],
        rows,
    )


def test_e10_recovery_cost(maritime_fleet):
    reports = sorted(maritime_fleet.reports, key=lambda r: r.t)
    crash_at = len(reports) * 2 // 3
    interval = 500

    full = _fresh_pipeline(maritime_fleet).run(reports)

    store = InMemoryCheckpointStore(retain=2)
    crashed = _fresh_pipeline(maritime_fleet)
    with pytest.raises(InjectedCrash):
        crashed.run(
            CrashInjector(reports, crash_at),
            checkpoints=CheckpointOptions(store=store, interval=interval),
        )

    resumed_pipeline = _fresh_pipeline(maritime_fleet)
    started = time.perf_counter()
    resumed = resumed_pipeline.run(
        ReplayLog(reports), checkpoints=CheckpointOptions(store=store, resume=True)
    )
    resume_wall_s = time.perf_counter() - started

    offset = store.latest().source_offset
    assert resumed.triples_stored == full.triples_stored
    assert len(resumed.simple_events) == len(full.simple_events)

    emit_table(
        "e10_recovery",
        "E10: recovery from last checkpoint vs full rerun",
        ["strategy", "records_replayed", "wall_s"],
        [
            ["full rerun", len(reports), full.wall_time_s],
            [f"resume@{offset}", len(reports) - offset, resume_wall_s],
        ],
    )
