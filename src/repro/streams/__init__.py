"""A single-process streaming dataflow engine with event-time semantics.

This is the substrate standing in for the distributed stream platform
(Flink/Kafka) the datAcron project deployed on. It provides:

- push-based operators (:class:`MapOperator`, :class:`FilterOperator`,
  :class:`FlatMapOperator`, :class:`KeyedOperator`, stateful
  :class:`KeyedProcessOperator`),
- event-time watermarks with bounded out-of-orderness,
- tumbling / sliding / session windows with event-time triggering,
- a :class:`Topology` builder plus :class:`StreamRunner` executor,
- per-operator metrics (throughput, latency percentiles) so the paper's
  "latency in ms" requirement is measurable at every stage,
- checkpoint/recovery (snapshot protocol, checkpoint barriers, offset
  replay) and a chaos layer (crash/fault injection, retry with backoff,
  dead-letter queue) so the stream tier survives worker failures without
  losing or double-counting reports.
"""

from repro.streams.records import Record, Watermark
from repro.obs.metrics import Counter, LatencyHistogram, OperatorMetrics
from repro.streams.operators import (
    Operator,
    MapOperator,
    FilterOperator,
    FlatMapOperator,
    KeyedProcessOperator,
    SinkOperator,
    CollectSink,
)
from repro.streams.watermarks import BoundedOutOfOrdernessWatermarks
from repro.streams.windows import (
    TumblingWindowAssigner,
    SlidingWindowAssigner,
    SessionWindowAssigner,
    WindowedAggregateOperator,
    WindowPane,
)
from repro.streams.topology import Topology, StreamRunner
from repro.streams.replay import ReplayLog, replay, replay_instant
from repro.streams.checkpoint import (
    Checkpoint,
    CheckpointStore,
    FileCheckpointStore,
    InMemoryCheckpointStore,
    StatefulMixin,
)
from repro.streams.chaos import (
    ChaosConfig,
    CrashInjector,
    DeadLetter,
    DeadLetterQueue,
    InjectedCrash,
    RetryPolicy,
    RetryingOperator,
    TransientFault,
    TransientFaultInjector,
)

__all__ = [
    "Record",
    "Watermark",
    "Counter",
    "LatencyHistogram",
    "OperatorMetrics",
    "Operator",
    "MapOperator",
    "FilterOperator",
    "FlatMapOperator",
    "KeyedProcessOperator",
    "SinkOperator",
    "CollectSink",
    "BoundedOutOfOrdernessWatermarks",
    "TumblingWindowAssigner",
    "SlidingWindowAssigner",
    "SessionWindowAssigner",
    "WindowedAggregateOperator",
    "WindowPane",
    "Topology",
    "StreamRunner",
    "ReplayLog",
    "replay",
    "replay_instant",
    "Checkpoint",
    "StatefulMixin",
    "CheckpointStore",
    "FileCheckpointStore",
    "InMemoryCheckpointStore",
    "ChaosConfig",
    "CrashInjector",
    "DeadLetter",
    "DeadLetterQueue",
    "InjectedCrash",
    "RetryPolicy",
    "RetryingOperator",
    "TransientFault",
    "TransientFaultInjector",
]
