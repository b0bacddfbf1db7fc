"""Real sharded multi-process execution of the mobility pipeline.

This subsystem is where the pipeline runs in parallel (the store's
partitions are scanned serially, in process, by the query executor):
the stream is split by a stable entity-key hash
(:class:`ShardRouter`), each shard runs a full
:class:`~repro.core.pipeline.MobilityPipeline` in its own worker process
(:class:`~repro.runtime.pool.WorkerPool`, spawn-safe, bounded queues,
backpressure, optional E9c-style admission shedding), a
:class:`Supervisor` health-checks the workers and restarts any dead
shard from its latest :class:`~repro.streams.checkpoint.FileCheckpointStore`
snapshot with offset-replay dedup, and a
:class:`~repro.runtime.merge.ResultMerger` folds per-worker results and
observability registries into one :class:`RuntimeResult` — crash or no
crash, byte-identical (see
:meth:`~repro.runtime.merge.RuntimeResult.deterministic_bytes`).

Quickstart::

    from repro.core.pipeline import PipelineSpec
    from repro.runtime import RuntimeConfig, Supervisor

    spec = PipelineSpec(bbox=sample.world.bbox,
                        registry=sample.registry,
                        zones=tuple(sample.world.zones))
    supervisor = Supervisor(spec, RuntimeConfig(n_workers=4))
    merged = supervisor.run(sorted(sample.reports, key=lambda r: r.t))
    print(merged.summary(), merged.restarts_total)

Sharding semantics match a keyed streaming job: all per-entity operator
state (dedup, synopses tracks, per-entity detection) is exact at any
parallelism; cross-entity detectors observe only their own shard's
entities (co-partitioning by geography is the documented extension —
see ``docs/runtime.md``).
"""

from repro.runtime.backpressure import AdmissionConfig, AdmissionController
from repro.runtime.merge import ResultMerger, RuntimeResult, ShardOutcome
from repro.runtime.pool import WorkerHandle, WorkerPool
from repro.runtime.sharding import ShardRouter, entity_key
from repro.runtime.supervisor import RuntimeConfig, ShardFailedError, Supervisor
from repro.runtime.worker import CHAOS_EXIT_CODE, EOS, WorkerSpec, worker_main

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "CHAOS_EXIT_CODE",
    "EOS",
    "ResultMerger",
    "RuntimeConfig",
    "RuntimeResult",
    "ShardFailedError",
    "ShardOutcome",
    "ShardRouter",
    "Supervisor",
    "WorkerHandle",
    "WorkerPool",
    "WorkerSpec",
    "entity_key",
    "worker_main",
]
