"""The shard worker: one process, one pipeline, one key range.

A worker is spawned with a picklable :class:`WorkerSpec`, builds its own
:class:`~repro.core.pipeline.MobilityPipeline` from the shared
:class:`~repro.core.pipeline.PipelineSpec`, and consumes record batches
from a bounded input queue until the end-of-stream sentinel. Every
``checkpoint_interval`` records it barrier-checkpoints the whole pipeline
into its shard's :class:`~repro.streams.checkpoint.FileCheckpointStore`,
so a crash loses at most one interval of work: the supervisor respawns
the shard with ``resume=True``, the fresh incarnation restores the newest
snapshot that passes its integrity check, reports the restored offset
back (the ``ready`` message), and the feeder replays exactly the
unprocessed suffix — offset-replay dedup, same contract as
:meth:`MobilityPipeline.run` with ``CheckpointOptions(resume=True)``.

Everything here is spawn-safe: the entry point is a module-level
function, the spec is immutable data, and no state is inherited from the
parent beyond the queues.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from repro.core.pipeline import CheckpointOptions, PipelineSpec
from repro.core.recordbatch import recordbatches
from repro.model.reports import PositionReport
from repro.streams.chaos import InjectedCrash
from repro.streams.checkpoint import FileCheckpointStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.queues import Queue as MPQueue

__all__ = ["WorkerSpec", "worker_main", "EOS", "CHAOS_EXIT_CODE"]

#: End-of-stream sentinel the feeder enqueues after the last batch.
EOS = None

#: Exit code of a worker killed by a chaos-injected crash (expected
#: death — the supervisor restarts it without logging a traceback).
CHAOS_EXIT_CODE = 70


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one shard worker needs, shipped picklable at spawn.

    Attributes:
        shard_id: This worker's shard index.
        pipeline: The shared pipeline recipe (identical across shards).
        checkpoint_dir: This shard's private checkpoint directory.
        checkpoint_interval: Records between barrier checkpoints.
        checkpoint_retain: Checkpoints kept per shard.
        resume: Restore the latest checkpoint before consuming (set on
            restarted incarnations, or on every incarnation when a run
            resumes a previous run's checkpoint directory).
        crash_after_records: Chaos hook — die with an injected crash
            after this many records of this incarnation (cleared on
            restart: the fault fires once).
        service_time_s: Per-record downstream service time (remote store
            / network round trip), executed as a real blocking wait in
            the worker. ``0.0`` disables it; benchmarks use it to model
            the distributed deployment's I/O-bound regime and tests use
            it to provoke backpressure.
    """

    shard_id: int
    pipeline: PipelineSpec
    checkpoint_dir: str
    checkpoint_interval: int = 500
    checkpoint_retain: int = 3
    resume: bool = False
    crash_after_records: int | None = None
    service_time_s: float = 0.0

    def __post_init__(self) -> None:
        if self.shard_id < 0:
            raise ValueError("shard_id must be >= 0")
        if self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")


def _drain_batches(in_queue: "MPQueue[Any]", service_time_s: float) -> Iterator[list[PositionReport]]:
    """Yield whole queue batches until :data:`EOS`.

    Polls with a timeout so a worker orphaned by a dead parent exits
    instead of blocking forever. The modeled downstream service time is
    paid once per batch (``service_time_s × len(batch)``) — the same
    total wait as a sleep per record, without a syscall per record.
    """
    parent = multiprocessing.parent_process()
    while True:
        try:
            item = in_queue.get(timeout=1.0)
        except queue_mod.Empty:
            if parent is not None and not parent.is_alive():
                raise SystemExit(1) from None
            continue
        if item is EOS:
            return
        if service_time_s > 0.0:
            time.sleep(service_time_s * len(item))
        yield list(item)


class _BatchCrashInjector:
    """Record-granular ``CrashInjector`` semantics over batches.

    Yields exactly ``crash_after`` *records* (slicing the batch the limit
    falls inside), then raises :class:`InjectedCrash` when the next batch
    is requested — so a worker crashing "after N records" dies at that
    record offset whatever the queue batch size. Like ``CrashInjector``,
    no crash fires when the stream ends exactly at the limit.
    """

    def __init__(self, batches: Iterator[list[PositionReport]], crash_after: int) -> None:
        if crash_after < 0:
            raise ValueError("crash_after must be >= 0")
        self._batches = batches
        self.crash_after = crash_after
        self.delivered = 0

    def __iter__(self) -> Iterator[list[PositionReport]]:
        for batch in self._batches:
            if self.delivered >= self.crash_after:
                raise InjectedCrash(
                    f"injected crash after {self.delivered} records"
                )
            remaining = self.crash_after - self.delivered
            if len(batch) > remaining:
                self.delivered += remaining
                yield batch[:remaining]
                raise InjectedCrash(
                    f"injected crash after {self.delivered} records"
                )
            self.delivered += len(batch)
            yield batch


def worker_main(
    spec: WorkerSpec, in_queue: "MPQueue[Any]", out_queue: "MPQueue[Any]"
) -> None:
    """Process entry point: build, maybe restore, consume, report.

    Protocol on ``out_queue``:

    - ``("ready", shard_id, start_offset)`` once the pipeline is built
      (and restored, when resuming) — the feeder starts replay there;
    - ``("result", shard_id, PipelineResult, MetricsRegistry)`` after the
      end-of-stream sentinel has been fully processed and finalized.

    A chaos-injected crash exits with :data:`CHAOS_EXIT_CODE`; any other
    exception propagates (non-zero exit), and the supervisor treats both
    as a dead shard to restart from its latest checkpoint.
    """
    store = FileCheckpointStore(spec.checkpoint_dir, retain=spec.checkpoint_retain)
    pipeline = spec.pipeline.build()
    start_offset = 0
    if spec.resume:
        checkpoint = store.latest()
        if checkpoint is not None:
            pipeline.restore(checkpoint.states)
            start_offset = checkpoint.source_offset
        if store.corrupt_skipped:
            # After the restore (which replaces the registry), so the
            # count reaches the supervisor with this incarnation's result.
            pipeline.metrics.counter("pipeline.checkpoint.corrupt_skipped").inc(
                store.corrupt_skipped
            )
    out_queue.put(("ready", spec.shard_id, start_offset))

    try:
        batches = _drain_batches(in_queue, spec.service_time_s)
        if spec.crash_after_records is not None:
            batches = iter(_BatchCrashInjector(batches, spec.crash_after_records))
        result = pipeline.run(
            recordbatches(batches, start_offset=start_offset),
            checkpoints=CheckpointOptions(
                store=store,
                interval=spec.checkpoint_interval,
                start_offset=start_offset,
            ),
        )
    except InjectedCrash:
        raise SystemExit(CHAOS_EXIT_CODE) from None
    out_queue.put(("result", spec.shard_id, result, pipeline.metrics))
