"""Checkpoint stores, replay log and chaos layer for the stream tier.

:class:`repro.core.pipeline.MobilityPipeline` plus :mod:`repro.runtime`
stand in for the distributed stream platform (Flink/Kafka) the datAcron
project deployed on. This package holds what they share for surviving
failures:

- checkpoint persistence (:class:`CheckpointStore` in memory or on
  disk, each file behind a SHA-256) for the pipeline's one checkpoint
  protocol — ``MobilityPipeline.snapshot()`` pickles its stateful
  components, ``restore()`` unpickles them;
- an offset-addressable :class:`ReplayLog`, so a resume replays exactly
  the suffix a crashed run never finished;
- a chaos layer (crash and transient-fault injection, retry with
  backoff, dead letters) so the stream tier survives worker failures
  without losing or double-counting reports.
"""

from repro.streams.replay import ReplayLog
from repro.streams.checkpoint import (
    Checkpoint,
    CheckpointStore,
    FileCheckpointStore,
    InMemoryCheckpointStore,
)
from repro.streams.chaos import (
    ChaosConfig,
    CrashInjector,
    DeadLetter,
    InjectedCrash,
    RetryPolicy,
    TransientFault,
    TransientFaultInjector,
)

__all__ = [
    "ReplayLog",
    "Checkpoint",
    "CheckpointStore",
    "FileCheckpointStore",
    "InMemoryCheckpointStore",
    "ChaosConfig",
    "CrashInjector",
    "DeadLetter",
    "InjectedCrash",
    "RetryPolicy",
    "TransientFault",
    "TransientFaultInjector",
]
