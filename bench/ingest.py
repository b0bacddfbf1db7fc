"""End-to-end measurement of the five ``ingest_*`` workloads.

Three ways of pushing the same kind of stream through the same layers:

- ``batch`` — ``MobilityPipeline.run(reports, batch=BatchOptions(256))``
  (``ingest_sparse``, ``ingest_dense``, ``ingest_aviation``). One
  operation is one micro-batch of 256; its latency is read from outside
  the program, from when ``run`` pulls the batch's first record off the
  source iterator to when it pulls the next batch's.
- ``record`` — one ``process_report`` call per record (``ingest_record``).
- ``sharded`` — ``Supervisor(...).run(reports)`` over real worker
  processes (``ingest_sharded``); one operation is one whole run.

Every timed repeat starts from a freshly built pipeline with a disabled
metrics registry, runs with the collector paused, and must reproduce the
same ``deterministic_digest`` (the record mode: that of a batch-256 run).
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import shutil
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator

from bench import stats
from bench.inputs import Stream, generate
from repro.core.pipeline import BatchOptions, MobilityPipeline
from repro.model.reports import PositionReport
from repro.obs import MetricsRegistry
from repro.runtime import RuntimeConfig, Supervisor

BATCH = 256

MODES = {
    "ingest_sparse": "batch",
    "ingest_dense": "batch",
    "ingest_aviation": "batch",
    "ingest_record": "record",
    "ingest_sharded": "sharded",
}


def n_workers() -> int:
    """Worker processes of the sharded runs: ``min(nproc, 2)``."""
    return min(os.cpu_count() or 1, 2)


@dataclass
class Measured:
    """What one workload's timed phase observed."""

    operations: int
    attempted: int
    failed: int
    wall_s: list[float]
    latencies_s: list[float]
    write_s: list[float] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Operations per second of the median repeat."""
        return self.operations / len(self.wall_s) / stats.quartiles(self.wall_s)[1]


def peak_rss_mb(workload: str) -> float:
    """``ru_maxrss`` of the process(es) that ran the system under test.

    This process for the in-process workloads, plus its largest worker
    for ``ingest_sharded``; the largest server child alone for
    ``serve_*`` (this process is then only the load generator). Children
    count once they have been waited for, so call this after teardown.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if workload.startswith("serve_"):
        kb = child
    elif workload == "ingest_sharded":
        kb = own + child
    else:
        kb = own
    return kb / 1024.0


def stamped(
    reports: list[PositionReport], stamps: list[float]
) -> Iterator[PositionReport]:
    """The report stream, noting the time each batch of 256 is first asked for."""
    for start in range(0, len(reports), BATCH):
        stamps.append(perf_counter())
        yield from reports[start : start + BATCH]


def fresh_pipeline(stream: Stream, enabled: bool = False) -> MobilityPipeline:
    return stream.spec.build(metrics=MetricsRegistry(enabled=enabled))


@dataclass
class IngestState:
    mode: str
    stream: Stream
    #: What every repeat must reproduce; ``None`` means the first repeat's digest.
    reference_digest: str | None
    checkpoint_dir: str


def checkpoint_dir(out_dir: str) -> str:
    """Where this process's ``Supervisor`` runs keep their checkpoints."""
    return os.path.join(out_dir, f"checkpoints-{os.getpid()}")


def supervisor(stream: Stream, checkpoints: str) -> Supervisor:
    return Supervisor(
        stream.spec,
        RuntimeConfig(
            n_workers=n_workers(), service_time_s=0.0, checkpoint_dir=checkpoints
        ),
        metrics=MetricsRegistry(enabled=False),
    )


@contextlib.contextmanager
def paused_gc() -> Iterator[None]:
    """Collect now, then keep the collector off while the body is timed."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def timed_run(
    stream: Stream, mode: str, checkpoints: str, enabled: bool = False
) -> tuple[float, MobilityPipeline | None, object, list[float]]:
    """One repeat: ``(wall, pipeline, result, operation latencies)``.

    ``result`` is the ``PipelineResult`` (``RuntimeResult`` in sharded
    mode, where there is no in-process pipeline to return).
    """
    reports = stream.reports
    pipeline = None if mode == "sharded" else fresh_pipeline(stream, enabled)
    stamps: list[float] = []
    with paused_gc():
        started = perf_counter()
        if mode == "batch":
            result = pipeline.run(stamped(reports, stamps), batch=BatchOptions(BATCH))
        elif mode == "record":
            process = pipeline.process_report
            for report in reports:
                process(report)
                stamps.append(perf_counter())
            result = pipeline.result
        else:
            result = supervisor(stream, checkpoints).run(reports)
        ended = perf_counter()
    # Batch stamps mark where each operation starts, record stamps where
    # it ends; a sharded run is one operation.
    edges = {
        "batch": stamps + [ended],
        "record": [started] + stamps,
        "sharded": [started, ended],
    }[mode]
    return (ended - started, pipeline, result, [b - a for a, b in zip(edges, edges[1:])])


def setup(workload: str, seed: int, out_dir: str, tiny: bool) -> IngestState:
    """Generate the stream, then an untimed warm-up over its first quarter."""
    mode = MODES[workload]
    stream = generate(workload, seed, tiny)
    checkpoints = checkpoint_dir(out_dir)
    head = stream.reports[: len(stream.reports) // 4]
    reference = None
    if mode == "sharded":
        supervisor(stream, checkpoints).run(head)
    elif mode == "batch":
        fresh_pipeline(stream).run(head, batch=BatchOptions(BATCH))
    else:
        warm = fresh_pipeline(stream)
        for report in head:
            warm.process_report(report)
        # The record path must agree byte for byte with the batch-256
        # run of the same stream.
        reference = (
            fresh_pipeline(stream)
            .run(stream.reports, batch=BatchOptions(BATCH))
            .deterministic_digest()
        )
    return IngestState(mode, stream, reference, checkpoints)


def teardown(state: IngestState) -> None:
    shutil.rmtree(state.checkpoint_dir, ignore_errors=True)


def measure(state: IngestState, seconds: float) -> Measured:
    """Timed repeats until ``seconds`` have been measured (at least two)."""
    reports = state.stream.reports
    n = len(reports)
    walls: list[float] = []
    latencies: list[float] = []
    failed = 0
    measured_s = 0.0
    reference = state.reference_digest
    while measured_s < seconds or len(walls) < 2:
        wall, __, result, operation_s = timed_run(
            state.stream, state.mode, state.checkpoint_dir
        )
        walls.append(wall)
        latencies.extend(operation_s)
        measured_s += wall
        # A repeat fails as a whole when its content differs from the
        # reference; otherwise only records it lost count as failed.
        digest = result.deterministic_digest()
        if reference is None:
            reference = digest
        if digest != reference:
            failed += n
        else:
            failed += result.dead_letter_count + (n - result.reports_in)
            if state.mode == "sharded":
                failed += result.shed_total
        # Let go of this repeat's pipeline before the next one is built,
        # so peak RSS is one pipeline's, not two.
        del __, result
    return Measured(
        operations=n * len(walls),
        attempted=n * len(walls),
        failed=failed,
        wall_s=walls,
        latencies_s=latencies,
        notes={"records": n, "repeats": len(walls)},
    )
