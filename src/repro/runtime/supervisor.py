"""The supervisor: shard feeders, health checks, crash-restart.

:class:`Supervisor.run` executes one stream across real worker
processes:

1. the :class:`~repro.runtime.sharding.ShardRouter` splits the stream
   into per-entity-key substreams (stable hash — parent and every worker
   incarnation agree on the assignment);
2. one feeder thread per *non-empty* shard (elastic: empty shards never
   spawn a process) pushes record batches into the worker's bounded
   queue — a full queue blocks the feeder (backpressure) or, under the
   ``"adaptive"`` shed policy, drives the E9c-style
   :class:`~repro.runtime.backpressure.AdmissionController` to shed at
   admission;
3. the feeder doubles as the shard's health-checker: every blocked put
   and every result wait polls worker liveness, a dead worker (chaos
   crash, hard kill, any non-zero exit) is restarted by the
   :class:`~repro.runtime.pool.WorkerPool` from its latest checkpoint,
   and the feeder replays the admitted substream from the restored
   offset — so the merged output is byte-identical to an uninterrupted
   run (see :meth:`repro.runtime.merge.RuntimeResult.deterministic_bytes`);
4. the :class:`~repro.runtime.merge.ResultMerger` folds the per-worker
   results and registries into one :class:`RuntimeResult`.

Supervisor-side accounting lands on its registry: per-shard
``runtime.shard<i>.{routed,admitted,shed,restarts}`` counters and the
``runtime.shard<i>.admit_rate`` gauge.
"""

from __future__ import annotations

import queue as queue_mod
import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.core.pipeline import PipelineResult, PipelineSpec
from repro.model.reports import PositionReport
from repro.obs.clock import monotonic
from repro.obs.metrics import MetricsRegistry
from repro.runtime.backpressure import AdmissionConfig, AdmissionController
from repro.runtime.merge import ResultMerger, RuntimeResult, ShardOutcome
from repro.runtime.pool import WorkerHandle, WorkerPool
from repro.runtime.sharding import ShardRouter
from repro.runtime.worker import EOS, WorkerSpec

__all__ = ["RuntimeConfig", "Supervisor", "ShardFailedError"]


class ShardFailedError(RuntimeError):
    """A shard exhausted its restart budget (or never came up)."""


class _WorkerDied(Exception):
    """Internal: the current incarnation is gone; restart from checkpoint."""


@dataclass(frozen=True)
class RuntimeConfig:
    """Every knob of the multi-process runtime.

    Attributes:
        n_workers: Shard count (= maximum worker processes; empty shards
            spawn none).
        batch_size: Records per queue item (amortizes IPC per record).
        queue_capacity: Bound of each shard's input queue, in batches.
        checkpoint_interval: Records between worker barrier checkpoints.
        checkpoint_dir: Root directory for per-shard checkpoint stores;
            ``None`` uses a fresh temporary directory per run. Pass a
            stable path plus ``resume=True`` to continue a previous run
            that crashed outright.
        checkpoint_retain: Checkpoints retained per shard.
        resume: Restore first incarnations from existing checkpoints
            (restarted incarnations always do).
        start_method: Multiprocessing start method (``None`` = platform
            default; all runtime code is spawn-safe).
        shed_policy: ``"block"`` (lossless backpressure, the default) or
            ``"adaptive"`` (admission-control load shedding driven by
            queue pressure — the E9c controller at the ingress).
        admission: Controller settings for the adaptive policy.
        put_timeout_s: How long one queue put waits before counting as a
            pressure event and re-checking worker liveness.
        ready_timeout_s: Budget for a spawned worker to report ready.
        max_restarts_per_shard: Crash-restart budget per shard.
        service_time_s: Per-record downstream service wait executed in
            workers (see :attr:`repro.runtime.worker.WorkerSpec.service_time_s`).
        crash_after: Chaos hook — ``{shard_id: n}`` makes that shard's
            first incarnation die after ``n`` records
            (record-granular, inside the worker).
    """

    n_workers: int = 2
    batch_size: int = 256
    queue_capacity: int = 8
    checkpoint_interval: int = 500
    checkpoint_dir: str | None = None
    checkpoint_retain: int = 3
    resume: bool = False
    start_method: str | None = None
    shed_policy: str = "block"
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    put_timeout_s: float = 0.05
    ready_timeout_s: float = 60.0
    max_restarts_per_shard: int = 3
    service_time_s: float = 0.0
    crash_after: Mapping[int, int] | None = None

    def __post_init__(self) -> None:
        if self.n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.shed_policy not in ("block", "adaptive"):
            raise ValueError(f"unknown shed_policy {self.shed_policy!r}")
        if self.max_restarts_per_shard < 0:
            raise ValueError("max_restarts_per_shard must be >= 0")


class _ShardRunner(threading.Thread):
    """Feeds one shard's substream and shepherds its worker incarnations."""

    def __init__(
        self,
        pool: WorkerPool,
        base_spec: WorkerSpec,
        records: list[PositionReport],
        config: RuntimeConfig,
        metrics: MetricsRegistry,
    ) -> None:
        super().__init__(name=f"shard-runner-{base_spec.shard_id}", daemon=True)
        self._pool = pool
        self._base_spec = base_spec
        self._records = records
        self._config = config
        self._metrics = metrics
        self._mname = f"runtime.shard{base_spec.shard_id}"
        #: Records actually enqueued, offset-addressable — the shard's
        #: replay log. A restarted worker's suffix is re-fed from here.
        self._admitted: list[PositionReport] = []
        self._raw_pos = 0
        self._controller = (
            AdmissionController(config.admission)
            if config.shed_policy == "adaptive"
            else None
        )
        self.outcome: ShardOutcome | None = None
        self.error: Exception | None = None
        self.restarts = 0

    # -- thread body --------------------------------------------------------

    def run(self) -> None:
        try:
            self.outcome = self._run_shard()
        except Exception as exc:  # surfaced by the supervisor after join
            self.error = exc

    def _run_shard(self) -> ShardOutcome:
        self._metrics.counter(f"{self._mname}.routed").inc(len(self._records))
        handle = self._pool.spawn(self._base_spec)
        while True:
            try:
                result, registry = self._run_incarnation(handle)
                break
            except _WorkerDied:
                self.restarts += 1
                self._metrics.counter(f"{self._mname}.restarts").inc()
                if self.restarts > self._config.max_restarts_per_shard:
                    handle.terminate()
                    raise ShardFailedError(
                        f"shard {self._base_spec.shard_id} died "
                        f"{self.restarts} times (exit {handle.exitcode}); "
                        "restart budget exhausted"
                    ) from None
                handle = self._pool.restart(handle)
        controller = self._controller
        if controller is not None:
            self._metrics.counter(f"{self._mname}.admitted").inc(controller.admitted)
            self._metrics.counter(f"{self._mname}.shed").inc(controller.shed)
            self._metrics.gauge(f"{self._mname}.admit_rate").set(controller.admit_rate)
        return ShardOutcome(
            shard_id=self._base_spec.shard_id,
            result=result,
            registry=registry,
            records_routed=len(self._records),
            restarts=self.restarts,
            shed=controller.shed if controller is not None else 0,
            final_admit_rate=(
                controller.admit_rate if controller is not None else 1.0
            ),
        )

    # -- one incarnation ----------------------------------------------------

    def _run_incarnation(
        self, handle: WorkerHandle
    ) -> "tuple[PipelineResult, MetricsRegistry]":
        start_offset = self._await_ready(handle)
        # A first incarnation resuming a previous run's checkpoint starts
        # past records this feeder never admitted: admit that prefix into
        # the log unsent, or the worker would be fed record 0 as record
        # ``start_offset``.
        while len(self._admitted) < start_offset:
            if not self._next_batch(len(self._admitted)):
                break
        pos = start_offset
        while True:
            batch = self._next_batch(pos)
            if not batch:
                self._put(handle, EOS)
                return self._await_result(handle)
            self._put(handle, batch)
            pos += len(batch)

    def _next_batch(self, pos: int) -> list[PositionReport]:
        """The next batch at offset ``pos`` of the admitted log.

        Replays already-admitted records when ``pos`` is behind the log's
        head (post-restart), otherwise admits fresh records from the raw
        substream — shedding, under the adaptive policy, happens exactly
        once per record, at first admission.
        """
        if pos < len(self._admitted):
            return self._admitted[pos : pos + self._config.batch_size]
        batch: list[PositionReport] = []
        while self._raw_pos < len(self._records):
            if len(batch) >= self._config.batch_size:
                break
            report = self._records[self._raw_pos]
            self._raw_pos += 1
            if self._controller is None or self._controller.admit():
                batch.append(report)
        self._admitted.extend(batch)
        return batch

    def _put(self, handle: WorkerHandle, item: Any) -> None:
        """Enqueue with backpressure: block while full, health-check, retry."""
        while True:
            try:
                handle.in_queue.put(item, timeout=self._config.put_timeout_s)
            except queue_mod.Full:
                if self._controller is not None:
                    self._controller.observe_put(blocked=True)
                if not handle.is_alive():
                    raise _WorkerDied from None
                continue
            if self._controller is not None:
                self._controller.observe_put(blocked=False)
            return

    def _await_ready(self, handle: WorkerHandle) -> int:
        """Wait for the incarnation's ready message; returns its offset."""
        deadline = monotonic() + self._config.ready_timeout_s
        while True:
            try:
                kind, __, start_offset = handle.out_queue.get(timeout=0.1)
            except queue_mod.Empty:
                if not handle.is_alive():
                    raise _WorkerDied from None
                if monotonic() > deadline:
                    raise ShardFailedError(
                        f"shard {handle.shard_id} never reported ready"
                    ) from None
                continue
            if kind == "ready":
                return start_offset

    def _await_result(
        self, handle: WorkerHandle
    ) -> "tuple[PipelineResult, MetricsRegistry]":
        """Wait for the final result; a death before it arrives restarts."""
        grace_deadline: float | None = None
        while True:
            try:
                message = handle.out_queue.get(timeout=0.1)
            except queue_mod.Empty:
                if not handle.is_alive():
                    # A clean exit (code 0) can be observed before the
                    # final result drains out of the queue's pipe buffer;
                    # keep reading for a grace period instead of
                    # declaring a spurious death. Any non-zero exit is a
                    # real death — restart immediately.
                    if handle.exitcode != 0:
                        raise _WorkerDied from None
                    if grace_deadline is None:
                        grace_deadline = monotonic() + 10.0
                    elif monotonic() > grace_deadline:
                        raise _WorkerDied from None
                continue
            if message is not None and message[0] == "result":
                __, __, result, registry = message
                handle.process.join(timeout=10.0)
                return result, registry


class Supervisor:
    """Runs a pipeline spec across sharded worker processes.

    Args:
        spec: The pipeline recipe every worker builds.
        config: Runtime knobs (shard count, queues, checkpoints, chaos).
        metrics: The supervisor-side registry; per-shard runtime counters
            land here and the merged per-worker registries fold into it.
    """

    def __init__(
        self,
        spec: PipelineSpec,
        config: RuntimeConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.spec = spec
        self.config = config or RuntimeConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.router = ShardRouter(self.config.n_workers)
        self.pool = WorkerPool(
            queue_capacity=self.config.queue_capacity,
            start_method=self.config.start_method,
        )

    def run(self, reports: Iterable[PositionReport]) -> RuntimeResult:
        """Execute the stream across the shards; blocks until merged.

        Raises :class:`ShardFailedError` when any shard exhausts its
        restart budget; otherwise every routed (and admitted) record was
        processed exactly once, crashes notwithstanding.
        """
        started = monotonic()
        substreams = self.router.partition(reports)
        config = self.config
        checkpoint_root = config.checkpoint_dir or tempfile.mkdtemp(
            prefix="repro-runtime-"
        )
        owns_checkpoints = config.checkpoint_dir is None
        runners: list[_ShardRunner] = []
        try:
            for shard_id, records in enumerate(substreams):
                if not records:
                    continue  # elastic: an idle shard costs no process
                shard_dir = f"{checkpoint_root}/shard-{shard_id:03d}"
                if not config.resume:
                    shutil.rmtree(shard_dir, ignore_errors=True)
                crash_after = (
                    config.crash_after.get(shard_id)
                    if config.crash_after is not None
                    else None
                )
                spec = WorkerSpec(
                    shard_id=shard_id,
                    pipeline=self.spec,
                    checkpoint_dir=shard_dir,
                    checkpoint_interval=config.checkpoint_interval,
                    checkpoint_retain=config.checkpoint_retain,
                    resume=config.resume,
                    crash_after_records=crash_after,
                    service_time_s=config.service_time_s,
                )
                runners.append(
                    _ShardRunner(self.pool, spec, records, config, self.metrics)
                )
            for runner in runners:
                runner.start()
            for runner in runners:
                runner.join()
        finally:
            self.pool.shutdown()
            if owns_checkpoints:
                shutil.rmtree(checkpoint_root, ignore_errors=True)
        failures = [r.error for r in runners if r.error is not None]
        if failures:
            raise failures[0]
        outcomes = [r.outcome for r in runners if r.outcome is not None]
        merger = ResultMerger(metrics=self.metrics)
        return merger.merge(
            outcomes,
            n_workers=config.n_workers,
            wall_time_s=monotonic() - started,
        )
