"""The end-to-end mobility analytics pipeline.

Per report (in event-time order):

1. **in-situ cleaning** — duplicate and plausibility filters;
2. **synopses** — keep/drop with critical-point annotation;
3. **transformation + storage** — kept reports become RDF documents in the
   parallel store (entities and zones are loaded at construction);
4. **simple events** — derived from every *clean* report (detection runs
   on the full-rate stream: alerting must not wait for the synopsis);
5. **complex events** — collision risk, loitering, rendezvous, capacity
   demand; matches are persisted as RDF too.

Every stage is timed per record; :meth:`MobilityPipeline.run` returns a
:class:`PipelineResult` with counts, latency summaries and handles to the
store/query layer for follow-up analysis.
"""

from __future__ import annotations

import itertools
import math
import pickle
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from repro.cep.detectors import (
    _VECTOR_MIN_CANDIDATES,
    CapacityDemandDetector,
    CollisionRiskDetector,
    LoiteringDetector,
    RendezvousDetector,
)
from repro.cep.simple import (
    _METERS_PER_DEG_LAT_FLOOR, ProximityRun, SimpleEventExtractor, within_radius,
)
from repro.core.config import PipelineConfig
from repro.core.recordbatch import RecordBatch
from repro.core.results import canonical_bytes, digest_of
from repro.geo.bbox import BBox
from repro.geo.geodesy import EARTH_RADIUS_M, haversine_m_arrays
from repro.geo.grid import GeoGrid
from repro.geo.polygon import Polygon
from repro.geo.zone_index import PREFILTER_MIN_ZONES, ZoneIndex
from repro.hashing import stable_hash
from repro.insitu.filters import DeduplicateFilter, PlausibilityFilter
from repro.insitu.synopses import SynopsesGenerator
from repro.model.entities import EntityRegistry
from repro.obs.clock import monotonic
from repro.model.events import ComplexEvent, SimpleEvent, SimpleEventLog
from repro.model.points import Domain
from repro.model.reports import PositionReport
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_SPAN
from repro.query.executor import QueryExecutor
from repro.rdf.emitter import CompiledReportEmitter
from repro.rdf.transform import RdfTransformer
from repro.store.parallel import ParallelRDFStore
from repro.sources.weather import WeatherGridSource
from repro.store.partition import GridPartitioner, HashPartitioner, HilbertPartitioner
from repro.streams.chaos import (
    ChaosConfig,
    DeadLetter,
    TransientFault,
    TransientFaultInjector,
)
from repro.streams.checkpoint import (
    Checkpoint,
    CheckpointStore,
    CheckpointVersionError,
)
from repro.streams.replay import ReplayLog

T = TypeVar("T")

#: Below this many records the columnar path's array set-up costs more
#: than it saves; such batches run through ``process_report`` per record.
_COLUMNAR_MIN_BATCH = 16

#: Layout version of a :meth:`MobilityPipeline.snapshot` payload; bump it
#: whenever a component's pickled state changes shape. Version 1 is the
#: unversioned layout (a bare pickled component dict) written before the
#: field existed; version 2 pickles the term dictionary as sealed chunks
#: and every partition as its insert/remove log; version 3 holds the
#: result's simple events as a chunked ``SimpleEventLog``.
SNAPSHOT_FORMAT = 3
_SNAPSHOT_MAGIC = b"RPSNAP"
_SNAPSHOT_HEADER = _SNAPSHOT_MAGIC + SNAPSHOT_FORMAT.to_bytes(2, "big")

_DEG2RAD = math.pi / 180.0


def _cpa_may_fire(
    lon1, lat1, spd1, hdg1,
    lon2, lat2, spd2, hdg2,
    cpa_threshold_m: float,
    tcpa_threshold_s: float,
) -> np.ndarray:
    """Conservative vectorized pre-check of the 2-D CPA/TCPA thresholds.

    Mirrors :func:`repro.geo.cpa.cpa_tcpa` (midpoint tangent plane, same
    3600 s horizon clamp) with margins that dominate the vector-vs-scalar
    float spread, so ``False`` proves the exact scalar check cannot fire:

    - CPA distance banded by 1 m. The clamped vertex is the constrained
      minimum of the separation parabola, and the vectorized separation
      differs from the scalar one by well under a millimetre at these
      scales, so a scalar CPA under the threshold keeps the vector CPA
      under ``threshold + 1``.
    - TCPA banded by 1 s — valid only while ``dv2`` is not tiny (the
      vertex position is ``ε/dv2``-conditioned), so pairs with relative
      speed under ~3 cm/s skip the TCPA cut entirely: their separation
      barely changes over the horizon and the distance band already
      decides them (this also covers the scalar ``dv2 < 1e-12``
      constant-separation branch, which reports TCPA 0).

    Only valid when every current-record altitude is ``None``: that forces
    the scalar computation 2-D and its fire condition to the maritime
    branch for any other/seed altitude.
    """
    k = _DEG2RAD * EARTH_RADIUS_M
    dx = (lon1 - lon2) * k * np.cos(np.radians((lat1 + lat2) / 2.0))
    dy = (lat1 - lat2) * k
    th1 = np.radians(hdg1)
    th2 = np.radians(hdg2)
    dvx = spd1 * np.sin(th1) - spd2 * np.sin(th2)
    dvy = spd1 * np.cos(th1) - spd2 * np.cos(th2)
    dv2 = dvx * dvx + dvy * dvy
    tcpa = -(dx * dvx + dy * dvy) / np.where(dv2 > 0.0, dv2, 1.0)
    tcpa = np.clip(tcpa, 0.0, 3600.0)
    tcpa = np.where(dv2 < 1e-12, 0.0, tcpa)
    cx = dx + dvx * tcpa
    cy = dy + dvy * tcpa
    lim = cpa_threshold_m + 1.0
    return (cx * cx + cy * cy <= lim * lim) & (
        (tcpa <= tcpa_threshold_s + 1.0) | (dv2 < 1e-3)
    )


@dataclass(frozen=True, slots=True)
class BatchOptions:
    """Micro-batching options for :meth:`MobilityPipeline.run`.

    Attributes:
        size: Records per micro-batch when the source is a plain report
            stream. Ignored for sources that already emit
            :class:`RecordBatch` instances (those arrive pre-sliced).
    """

    size: int = 256

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("batch size must be positive")


@dataclass(frozen=True, slots=True)
class CheckpointOptions:
    """Checkpoint/resume options for :meth:`MobilityPipeline.run`.

    Attributes:
        store: Where checkpoints are saved to and resumed from.
        interval: Save a checkpoint every this many records (at the first
            batch boundary past each multiple when batching). ``None``
            saves nothing — only meaningful together with ``resume``.
        resume: Restore the store's latest checkpoint before processing
            and skip the source prefix it already covers. The source must
            then be the *full* stream the interrupted run consumed
            (ideally a :class:`~repro.streams.replay.ReplayLog`).
        start_offset: Absolute offset of the source's first record
            (non-zero when the caller already trimmed the stream).
            Ignored with ``resume`` — the checkpoint knows its offset.
    """

    store: CheckpointStore
    interval: int | None = None
    resume: bool = False
    start_offset: int = 0

    def __post_init__(self) -> None:
        if self.interval is not None and self.interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        if self.interval is None and not self.resume:
            raise ValueError(
                "CheckpointOptions needs an interval, resume=True, or both"
            )
        if self.start_offset < 0:
            raise ValueError("start_offset must be non-negative")


class _DeadLettered(Exception):
    """Internal control flow: the current report exhausted its retries."""


def _flatten_records(
    source: "Iterable[PositionReport | RecordBatch]",
) -> Iterator[PositionReport]:
    """Record-level view of a source that may emit RecordBatches."""
    for item in source:
        if isinstance(item, RecordBatch):
            yield from item.reports
        else:
            yield item


def _iter_batches(
    reports: Iterable[PositionReport], batch_size: int
) -> Iterator[list[PositionReport]]:
    """Slice a stream into order-preserving batches of up to ``batch_size``."""
    batch: list[PositionReport] = []
    for report in reports:
        batch.append(report)
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


@dataclass
class PipelineResult:
    """Counters and latency summaries of one pipeline run.

    Attributes map 1:1 to the numbers E2/E7 report. ``metrics`` is the
    full observability-registry snapshot (counters, gauges, histogram
    percentiles, trace stats) in the same schema
    :class:`repro.query.executor.ExecutionReport` carries — one format
    for every benchmark and test to read.
    """

    reports_in: int = 0
    reports_clean: int = 0
    reports_kept: int = 0
    triples_stored: int = 0
    simple_events: SimpleEventLog = field(default_factory=SimpleEventLog)
    complex_events: list[ComplexEvent] = field(default_factory=list)
    stage_latency: dict[str, dict[str, float]] = field(default_factory=dict)
    end_to_end: dict[str, float] = field(default_factory=dict)
    wall_time_s: float = 0.0
    #: Degraded-mode accounting (all zero/empty without a chaos config):
    #: transient failures observed per stage,
    stage_failures: dict[str, int] = field(default_factory=dict)
    #: retries performed per stage,
    stage_retries: dict[str, int] = field(default_factory=dict)
    #: reports that exhausted the retry budget,
    dead_letters: list[DeadLetter] = field(default_factory=list)
    #: reports that failed at least once but ultimately completed,
    records_recovered: int = 0
    #: and the total backoff delay the retries would have waited.
    simulated_backoff_s: float = 0.0
    #: Snapshot of the pipeline's :class:`~repro.obs.MetricsRegistry`
    #: at finalize time (``{"counters", "gauges", "histograms", "trace"}``).
    metrics: dict = field(default_factory=dict)

    @property
    def dead_letter_count(self) -> int:
        """Number of reports parked in the dead-letter queue."""
        return len(self.dead_letters)

    @property
    def recovery_rate(self) -> float:
        """Fraction of transiently-failing reports that still completed.

        1.0 when no report ever failed (nothing needed recovering).
        """
        troubled = self.records_recovered + len(self.dead_letters)
        if troubled == 0:
            return 1.0
        return self.records_recovered / troubled

    @property
    def compression_ratio(self) -> float:
        """Fraction of clean reports dropped by the synopses stage."""
        if self.reports_clean == 0:
            return 0.0
        return 1.0 - self.reports_kept / self.reports_clean

    @property
    def throughput_rps(self) -> float:
        """End-to-end reports per wall-clock second."""
        if self.wall_time_s <= 0:
            return 0.0
        return self.reports_in / self.wall_time_s

    def summary(self) -> dict[str, float]:
        """Flat numeric summary (the common report shape, see as_dict)."""
        out: dict[str, float] = {
            "reports_in": float(self.reports_in),
            "reports_clean": float(self.reports_clean),
            "reports_kept": float(self.reports_kept),
            "triples_stored": float(self.triples_stored),
            "simple_events": float(len(self.simple_events)),
            "complex_events": float(len(self.complex_events)),
            "compression_ratio": self.compression_ratio,
            "throughput_rps": self.throughput_rps,
            "wall_time_s": self.wall_time_s,
            "dead_letters": float(self.dead_letter_count),
            "recovery_rate": self.recovery_rate,
        }
        for key in ("p50_ms", "p95_ms", "p99_ms"):
            if key in self.end_to_end:
                out[f"end_to_end_{key}"] = self.end_to_end[key]
        return out

    def as_dict(self) -> dict:
        """The common observability report shape.

        ``{"kind", "summary", "metrics"}`` — the same schema as
        :meth:`repro.query.executor.ExecutionReport.as_dict`, so
        benchmarks and tests read one format across tiers.
        """
        return {"kind": "pipeline", "summary": self.summary(), "metrics": self.metrics}

    def deterministic_payload(self) -> dict:
        """Everything the run's content determines, nothing timing does.

        The batch/per-record differential oracle: wall-clock, latency and
        backoff values are excluded by construction; counts, the full
        event streams and the dead-letter ledger are included. Dead
        letters are sorted (the *set* is the contract, not the order
        execution parked them in), and ``simulated_backoff_s`` is
        deliberately absent — a float sum over per-retry delays is not
        bit-stable under reordering.
        """
        return {
            "reports_in": self.reports_in,
            "reports_clean": self.reports_clean,
            "reports_kept": self.reports_kept,
            "triples_stored": self.triples_stored,
            "records_recovered": self.records_recovered,
            "stage_failures": dict(sorted(self.stage_failures.items())),
            "stage_retries": dict(sorted(self.stage_retries.items())),
            "simple_events": [list(k) for k in self.simple_events.keys()],
            "complex_events": [
                [e.event_type, list(e.entity_ids), e.t_start, e.t_end]
                for e in self.complex_events
            ],
            "dead_letters": sorted(
                [d.stage, d.event_time, d.attempts] for d in self.dead_letters
            ),
        }

    def deterministic_bytes(self) -> bytes:
        """Canonical JSON encoding of :meth:`deterministic_payload`."""
        return canonical_bytes(self.deterministic_payload())

    def deterministic_digest(self) -> str:
        """SHA-256 of :meth:`deterministic_bytes`."""
        return digest_of(self.deterministic_payload())


@dataclass(frozen=True)
class PipelineSpec:
    """A picklable recipe for building identical pipelines in any process.

    The shardable run API: the multi-process runtime
    (:mod:`repro.runtime`) ships one spec to every worker, each worker
    calls :meth:`build`, and all shards run structurally identical
    pipelines over their own key-routed substream. Everything in the spec
    must be picklable and immutable-in-practice (the entity registry and
    zones are only read by the pipeline).

    ``metrics_seed``/``metrics_enabled`` describe the observability
    registry each build creates, so per-worker registries are seeded
    identically and merge deterministically (see
    :meth:`repro.obs.MetricsRegistry.merge`).
    """

    bbox: BBox
    config: PipelineConfig = field(default_factory=PipelineConfig)
    registry: EntityRegistry | None = None
    zones: tuple[Polygon, ...] = ()
    domain: Domain = Domain.MARITIME
    chaos: ChaosConfig | None = None
    metrics_enabled: bool = True
    metrics_seed: int = 2017

    def build(self, metrics: MetricsRegistry | None = None) -> "MobilityPipeline":
        """Construct a fresh pipeline exactly as the spec describes."""
        if metrics is None:
            metrics = MetricsRegistry(
                seed=self.metrics_seed, enabled=self.metrics_enabled
            )
        return MobilityPipeline(
            bbox=self.bbox,
            config=self.config,
            registry=self.registry,
            zones=self.zones,
            domain=self.domain,
            chaos=self.chaos,
            metrics=metrics,
        )


class MobilityPipeline:
    """The full datAcron flow over one geographic world.

    Args:
        chaos: When given, stage executions fail transiently with the
            configured probability and are retried with exponential
            backoff; reports that exhaust the budget land in the result's
            dead-letter queue instead of killing the run (degraded mode).
        metrics: The observability registry shared by every tier of this
            pipeline (in-situ, store, query, CEP). Defaults to a fresh
            enabled registry; pass ``MetricsRegistry(enabled=False)`` for
            a zero-overhead run.
    """

    def __init__(
        self,
        bbox: BBox,
        config: PipelineConfig | None = None,
        registry: EntityRegistry | None = None,
        zones: Iterable[Polygon] = (),
        domain: Domain = Domain.MARITIME,
        weather: "WeatherGridSource | None" = None,
        chaos: ChaosConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or PipelineConfig()
        self.registry = registry or EntityRegistry()
        self.zones = list(zones)
        self.domain = domain
        self.grid = GeoGrid(bbox=bbox, nx=self.config.grid_nx, ny=self.config.grid_ny)
        self.metrics = metrics if metrics is not None else MetricsRegistry()

        # In-situ layer.
        self._dedup = DeduplicateFilter()
        self._plausibility = PlausibilityFilter(registry=self.registry)
        if self.config.adaptive_keep_rate is not None:
            from repro.insitu.adaptive import AdaptiveConfig, AdaptiveSynopsesGenerator

            self._synopses = AdaptiveSynopsesGenerator(
                base=self.config.synopses,
                adaptive=AdaptiveConfig(target_keep_rate=self.config.adaptive_keep_rate),
                metrics=self.metrics,
            )
        else:
            self._synopses = SynopsesGenerator(self.config.synopses, metrics=self.metrics)

        # Transformation + storage.
        self.transformer = RdfTransformer(
            st_grid=self.grid, time_bucket_s=self.config.time_bucket_s
        )
        self.store = ParallelRDFStore(self._build_partitioner(), metrics=self.metrics)
        self.weather = weather
        self._stored_weather_cells: set[tuple[int, float]] = set()
        self.executor = QueryExecutor(self.store, metrics=self.metrics)
        if self.config.persist_rdf:
            for entity in self.registry:
                self.store.add_document(self.transformer.entity_to_triples(entity))
            for zone in self.zones:
                self.store.add_document(self.transformer.zone_to_triples(zone))

        # Analytics layer. With enough zones, one grid-prefiltered
        # containment index is shared by the simple-event extractor and
        # _interlink — both used to linearly scan every polygon per record.
        self._zone_index = (
            ZoneIndex(self.zones) if len(self.zones) >= PREFILTER_MIN_ZONES else None
        )
        self._extractor = SimpleEventExtractor(
            config=self.config.simple_events,
            zones=self.zones,
            registry=self.registry,
            metrics=self.metrics,
            zone_index=self._zone_index,
        )
        self._collision = CollisionRiskDetector(
            cpa_threshold_m=self.config.collision_cpa_m,
            tcpa_threshold_s=self.config.collision_tcpa_s,
        )
        self._loitering = LoiteringDetector(
            radius_m=self.config.loitering_radius_m,
            min_duration_s=self.config.loitering_duration_s,
        )
        self._rendezvous = RendezvousDetector(
            radius_m=self.config.rendezvous_radius_m,
            min_duration_s=self.config.rendezvous_duration_s,
        )
        self._capacity = (
            CapacityDemandDetector(
                sectors=self.zones,
                capacity=self.config.capacity_limit,
                window_s=self.config.capacity_window_s,
            )
            if domain is Domain.AVIATION and self.zones
            else None
        )
        if self.config.hotspots:
            from repro.cep.hotspot_stream import StreamingHotspotDetector

            self._hotspots = StreamingHotspotDetector(
                self.grid,
                window_s=self.config.hotspot_window_s,
                z_threshold=self.config.hotspot_z_threshold,
            )
        else:
            self._hotspots = None

        # Stage latency histograms live on the shared registry (one
        # instrument surface across tiers); the dict keeps the short
        # stage-name view the result reports.
        self._latency = {
            stage: self.metrics.histogram(f"pipeline.{stage}")
            for stage in ("clean", "synopses", "rdf", "events", "detectors")
        }
        self._end_to_end = self.metrics.histogram("pipeline.end_to_end")
        # Hot-path discipline: per-record samples go into plain lists
        # (one bound append each) and land on the histograms in batches —
        # see _flush_latency. With a disabled registry the whole timing
        # path is skipped, so no-op mode costs nothing per record.
        self._obs = self.metrics.enabled
        self._trace_every = self.config.trace_every_n if self._obs else 0
        self._lat_buf: dict[str, list[float]] = {
            stage: []
            for stage in (
                "clean", "synopses", "rdf", "events", "detectors", "end_to_end"
            )
        }
        # Raw (un-normalized) wall-clock accumulated per stage at the same
        # boundaries that feed the latency buffers — the ground truth for
        # "which stage dominates" time-share artifacts. Zero when the
        # registry is disabled (same hot-path discipline as _lat_buf).
        self._stage_wall: dict[str, float] = {stage: 0.0 for stage in self._lat_buf}
        self._trace_this_record = False
        self._record_end = 0.0
        self._result = PipelineResult()

        # Degraded-mode (chaos) path.
        self._chaos = chaos
        if chaos is not None and chaos.fail_prob > 0:
            self._injector = TransientFaultInjector(
                chaos.fail_prob, seed=chaos.seed, stages=chaos.stages
            )
        else:
            self._injector = None
        # One backoff-jitter RNG per stage (lazily seeded, stable hash of
        # (seed, stage)): the i-th retry of a given stage draws the same
        # jitter no matter how other stages' retries interleave — same
        # reason the fault injector keeps per-stage streams.
        self._retry_rngs: dict[str, random.Random] = {}
        self._record_faulted = False

        # Compiled id-level RDF emission (columnar path only). Built
        # last: probe verification failure must be observable on the
        # metrics registry configured above.
        self._emitter = self._build_emitter()

    def _build_emitter(self) -> CompiledReportEmitter | None:
        """The compiled emitter, or ``None`` when the object path must run.

        ``None`` when persistence is off, the config disables the
        emitter, or — the graceful-fallback contract — the probe-set
        self-verification against ``report_to_triples`` fails (counted
        on ``rdf.emitter.fallback``; the transformer stays authoritative
        and the object path takes over everywhere).
        """
        if not (self.config.persist_rdf and self.config.compiled_rdf_emitter):
            return None
        emitter = CompiledReportEmitter(self.transformer, self.store.dictionary)
        if not emitter.engaged:
            if self._obs:
                self.metrics.counter("rdf.emitter.fallback").inc()
            return None
        return emitter

    def _build_partitioner(self):
        n = self.config.n_partitions
        if self.config.partitioner == "hash":
            return HashPartitioner(n)
        if self.config.partitioner == "grid":
            return GridPartitioner(self.grid, n)
        return HilbertPartitioner(self.grid, n)

    @property
    def live_result(self) -> "PipelineResult":
        """The run-in-progress result (a live view, not a copy).

        Counters and event streams update as records are processed;
        latency summaries and ``metrics`` are only populated at finalize
        time. The always-on serving tier (:mod:`repro.serving`) reads
        this between ingest batches — a pipeline that never "finishes"
        still has to account for what it has done so far.
        """
        return self._result

    # -- processing -------------------------------------------------------------

    def process_report(self, report: PositionReport) -> list[ComplexEvent]:
        """Push one report through every stage; returns new complex events.

        Under a chaos config, stage executions may fail transiently and be
        retried; a report that exhausts its retry budget is parked in the
        dead-letter queue and dropped (the run continues degraded).
        """
        result = self._result
        result.reports_in += 1
        obs = self._obs
        record_span = NULL_SPAN
        record_started = 0.0
        if obs:
            every_n = self._trace_every
            self._trace_this_record = (
                every_n > 0 and (result.reports_in - 1) % every_n == 0
            )
            if self._trace_this_record:
                record_span = self.metrics.span("pipeline.record", records=1)
            record_started = monotonic()
        self._record_faulted = False
        with record_span:
            try:
                new_complex = self._process_stages(report, record_started)
            except _DeadLettered:
                if obs:
                    elapsed = monotonic() - record_started
                    self._lat_buf["end_to_end"].append(elapsed)
                    self._stage_wall["end_to_end"] += elapsed
                return []
        if self._record_faulted:
            result.records_recovered += 1
        if obs:
            # _process_stages leaves its final clock read in _record_end,
            # so closing the end-to-end sample costs no extra read.
            self._lat_buf["end_to_end"].append(self._record_end - record_started)
            self._stage_wall["end_to_end"] += self._record_end - record_started
            if result.reports_in % 4096 == 0:
                self._flush_latency()
        return new_complex

    def process_batch(self, reports: Sequence[PositionReport]) -> list[ComplexEvent]:
        """Push a micro-batch through the pipeline.

        Runs the columnar core when :meth:`_columnar_reason` allows it,
        :meth:`process_report` per record otherwise — callers never pick.

        Equivalence contract (enforced by the differential suite):
        :meth:`PipelineResult.deterministic_bytes` — counts, event streams,
        dead letters, fault/retry accounting — is byte-identical to feeding
        the same records one at a time through :meth:`process_report`, for
        any batch size, with or without a chaos config. Store *content*
        (decoded triples) is identical too; only dictionary ids differ,
        because the columnar core lands event documents after all report
        documents instead of interleaved.

        Returns the new complex events in per-record emission order.
        """
        return self._process_any(list(reports), None)

    def process_recordbatch(self, rb: RecordBatch) -> list[ComplexEvent]:
        """Push one columnar :class:`RecordBatch` through the pipeline.

        The native entry point for sources that emit batches directly (no
        per-record work before the RDF/store boundary on the columnar
        core). Path selection and contract as in :meth:`process_batch`.
        """
        return self._process_any(rb.reports, rb)

    def _columnar_reason(self, n: int) -> str | None:
        """Why an ``n``-record batch must run per record (``None``: it need not).

        The one eligibility predicate of the columnar core. An armed fault
        injector needs record-major execution so the per-stage fault and
        backoff RNG streams line up with :meth:`process_report` (a chaos
        config that can never fire arms nothing); tiny batches do not repay
        the array set-up; the adaptive generator re-tunes per record.
        """
        if self._injector is not None:
            return "chaos"
        if n < _COLUMNAR_MIN_BATCH:
            return "small_batch"
        if type(self._synopses) is not SynopsesGenerator:
            return "adaptive_synopses"
        return None

    def _process_any(
        self, reports: Sequence[PositionReport], rb: RecordBatch | None
    ) -> list[ComplexEvent]:
        """Select the path for one batch, count the choice, run it."""
        n = len(reports)
        if n == 0:
            return []
        reason = self._columnar_reason(n)
        if self._obs:
            path = "columnar" if reason is None else f"scalar.{reason}"
            self.metrics.counter(f"pipeline.path.{path}").inc()
        if reason is None:
            if rb is None:
                rb = RecordBatch.from_reports(reports, offset=self._result.reports_in)
            return self._process_recordbatch(rb)
        return [event for report in reports for event in self.process_report(report)]

    def _process_recordbatch(self, rb: RecordBatch) -> list[ComplexEvent]:
        """Columnar core: clean, synopsize, store and detect over arrays.

        Equivalence contract (same as :meth:`process_batch`, enforced by
        the differential suite): every decision — filter accepts,
        synopses keeps, events, detector fires, counters — is identical
        to the per-record path. The strategy throughout is *exact
        conservative guards*: cheap vectorized or cached-scalar checks
        prove most records can take no branch that emits an event or
        mutates non-trivial state; only the flagged remainder replays
        through the unchanged scalar components, after lazily syncing
        the per-entity state those components read. Loitering and
        capacity demand run columnar outright, their events keyed by
        the position raising them.

        Observability: stage samples land on the same histograms, except
        that simple-event extraction and detection run as one fused walk
        whose time is recorded under ``pipeline.detectors`` (the
        ``events`` histogram receives no columnar samples).
        """
        n = len(rb)
        result = self._result
        obs = self._obs
        base = result.reports_in
        result.reports_in += n

        batch_span = NULL_SPAN
        t_batch = t_prev = 0.0
        if obs:
            every = self._trace_every
            if every > 0 and ((base + every - 1) // every) * every < base + n:
                batch_span = self.metrics.span("pipeline.batch", records=n)
            self._trace_this_record = False
            t_batch = t_prev = monotonic()

        with batch_span:
            # -- clean: columnar dedup + plausibility ------------------------
            mask = self._plausibility.accept_recordbatch(
                rb, self._dedup.accept_recordbatch(rb)
            )
            active = np.flatnonzero(mask)
            n_active = int(active.size)
            result.reports_clean += n_active
            if obs:
                t_prev = self._close_stage("clean", t_prev, n)

            # -- synopses: chord-walk keep/drop ------------------------------
            decisions = self._synopses.process_recordbatch(rb, mask)
            active_l = active.tolist()
            for p in active_l:
                if decisions[p][1]:
                    result.reports_kept += 1
            if obs:
                t_prev = self._close_stage("synopses", t_prev, n_active)

            # Zone containment, one vectorized ray-cast per zone over the
            # whole batch — shared by interlinking (exact containment per
            # kept record), the zone entry/exit guard and capacity demand.
            inside_cols = [z.contains_batch(rb.lon, rb.lat) for z in self.zones]

            # -- rdf: transform + bulk store ---------------------------------
            if self.config.persist_rdf:
                stored = self._store_recordbatch(rb, active_l, decisions, inside_cols)
                if obs:
                    t_prev = self._close_stage("rdf", t_prev, stored)

            # -- simple events + detectors: one guarded walk -----------------
            # Which records *must* run a scalar component is decided
            # entirely up front with vectorized exact-or-conservative
            # guards: `ex_int` (simple-event extraction) and `coll_int`
            # (collision pair checks). Proximity is the exception: the
            # pair join decides the hits itself, and the walk logs those
            # of records raising nothing else as runs, unbuilt. Loitering
            # and capacity events arrive keyed by position. Everything
            # else provably emits nothing and only advances per-entity
            # latest state, applied lazily by the walk.
            ex_int, loit_map = self._segment_guards(rb, mask, inside_cols)
            prox, prox_vec, prox_band, coll_may = self._pair_guards(rb, active)
            ex_int[active] |= prox_vec
            coll_int = np.zeros(n, dtype=bool)
            coll_int[active] = coll_may
            if obs:
                counter = self.metrics.counter
                counter("pipeline.columnar.records").inc(n_active)
                counter("pipeline.replay.extractor").inc(int(ex_int.sum()))
                counter("pipeline.replay.collision").inc(int(coll_may.sum()))
                counter("pipeline.replay.proximity_vector_kernel").inc(int(prox_vec.sum()))
                counter("pipeline.replay.proximity_band").inc(prox_band)
            cap = self._capacity
            cap_map = None if cap is None else cap.process_recordbatch(rb, active, inside_cols)
            out = self._guarded_walk(
                rb, active_l, ex_int.tolist(), coll_int.tolist(), loit_map, cap_map, prox
            )

        if obs:
            t_now = self._close_stage("detectors", t_prev, n_active)
            self._lat_buf["end_to_end"].append((t_now - t_batch) / n)
            self._stage_wall["end_to_end"] += t_now - t_batch
            if (base // 4096) != (result.reports_in // 4096):
                self._flush_latency()
        return out

    def _close_stage(self, stage: str, t_prev: float, per: int) -> float:
        """Charge ``stage`` the time since ``t_prev`` (one latency sample,
        amortized over ``per`` records); returns the clock read taken."""
        t_now = monotonic()
        if per:
            self._lat_buf[stage].append((t_now - t_prev) / per)
        self._stage_wall[stage] += t_now - t_prev
        return t_now

    def _store_recordbatch(
        self, rb: RecordBatch, active_l: list[int], decisions: list, inside_cols: list
    ) -> int:
        """Columnar rdf stage: transform + bulk store; returns documents landed."""
        result = self._result
        reports = rb.reports
        zones = self.zones
        n_zones = len(zones)
        stage_n = 0
        raw = self.config.persist_raw_reports
        interlink = self.config.interlink
        # Compiled id-level emission: the emitter (probe-verified
        # against report_to_triples at build) assembles id triples
        # straight from the columns — vectorized st-keys over the
        # whole batch, interned constant/literal ids — and the
        # store routes them by key without decoding a term. The
        # weather interlink keeps the object path (its first-sight
        # document logic lives in _interlink).
        em = self._emitter if self.weather is None else None
        if em is not None:
            keys_l = em.st_keys(rb.lon, rb.lat, rb.t).tolist() if active_l else []
            id_docs: list = []
            emit = em.emit_ids
            p_within = em.prop_within_zone_id
            zone_id_of = em.zone_id
            for p in active_l:
                annotated, keep = decisions[p]
                key = keys_l[p]
                if keep:
                    sid, ids = emit(annotated, key)
                    if interlink:
                        for zi in range(n_zones):
                            if inside_cols[zi][p]:
                                ids.append((sid, p_within, zone_id_of(zones[zi].name)))
                elif raw:
                    sid, ids = emit(reports[p], key)
                else:
                    continue
                id_docs.append((sid, ids, key, True))
                result.triples_stored += len(ids)
                stage_n += 1
            if id_docs:
                self.store.add_id_documents(id_docs)
        else:
            docs: list[list] = []
            for p in active_l:
                annotated, keep = decisions[p]
                if keep:
                    triples = self.transformer.report_to_triples(annotated)
                    if interlink:
                        inside = [
                            zones[zi] for zi in range(n_zones) if inside_cols[zi][p]
                        ]
                        triples.extend(
                            self._interlink(
                                reports[p], triples[0].s, doc_sink=docs, containing=inside
                            )
                        )
                elif raw:
                    triples = self.transformer.report_to_triples(reports[p])
                else:
                    continue
                docs.append(triples)
                result.triples_stored += len(triples)
                stage_n += 1
            if docs:
                self.store.add_documents(docs)
        return stage_n

    def _segment_guards(
        self, rb: RecordBatch, mask: np.ndarray, inside_cols: list
    ) -> tuple[np.ndarray, dict[int, ComplexEvent]]:
        """Per-segment guards: the positions that must replay through the
        scalar extractor, and loitering events by the position raising them."""
        ex = self._extractor
        ex_states = ex._states
        cfg = ex.config
        gap_th = cfg.gap_threshold_s
        stop_sp = cfg.stop_speed_mps
        # Same two config floats, same single multiply as the scalar
        # Schmitt trigger — the cached product is float-identical.
        stop_hi = stop_sp * cfg.stop_hysteresis
        loit = self._loitering
        zones = self.zones
        n_zones = len(zones)
        vocab = rb.vocabulary

        # Anomaly ceiling per entity: the identical `max_speed *
        # factor` product the scalar check computes, one registry
        # lookup per entity instead of one per record.
        if ex.registry is not None:
            factor = cfg.speed_anomaly_factor
            ceilings: list[float | None] = []
            for eid in vocab:
                ent = ex.registry.get_or_none(eid)
                ceilings.append(None if ent is None else ent.max_speed_mps * factor)
        else:
            ceilings = [None] * len(vocab)

        ex_int = np.zeros(len(rb), dtype=bool)
        # Loitering is strictly per-entity (window, refractory and
        # block state are all keyed by entity), so it runs bulk per
        # segment here; events come back tagged with the position
        # that raised them and are re-interleaved by the walk below
        # in exact per-record order.
        loit_map: dict[int, ComplexEvent] = {}

        # Zone entry/exit + gap + stop + anomaly guards, per segment.
        for code, eid, seg in rb.segments():
            pos = seg[mask[seg]]
            m = pos.size
            if m == 0:
                continue
            t_seg = rb.t[pos]
            spd_seg = rb.speed[pos]
            loit_hits = loit.process_positions(
                eid, t_seg.tolist(), rb.lon[pos].tolist(), rb.lat[pos].tolist()
            )
            if loit_hits:
                pos_l = pos.tolist()
                for k, levent in loit_hits:
                    loit_map[pos_l[k]] = levent
            st = ex_states.get(eid)
            has_prev = st is not None and st.last is not None
            # Zone guard: membership of each zone evolves only at
            # containment transitions along the entity's active
            # records (seeded from pre-batch state.zones), so exactly
            # the transition records can emit zone events or mutate
            # state.zones.
            if n_zones:
                member = st.zones if st is not None else ()
                for zi in range(n_zones):
                    vals = inside_cols[zi][pos]
                    if bool(vals[0]) != (zones[zi].name in member):
                        ex_int[pos[0]] = True
                    if m > 1:
                        hits = pos[1:][vals[1:] != vals[:-1]]
                        if hits.size:
                            ex_int[hits] = True
            # Gap guard: exact — same float subtraction and compare.
            flag = np.zeros(m, dtype=bool)
            if m > 1:
                flag[1:] = (t_seg[1:] - t_seg[:-1]) > gap_th
            if has_prev:
                flag[0] = (t_seg[0] - st.last.t) > gap_th
            # Anomaly guard: exact vector replica of the scalar
            # compare (NaN speeds compare False, like `is None`).
            ceiling = ceilings[code]
            if ceiling is not None:
                flag |= spd_seg > ceiling
            # Stop guard: mirror the Schmitt trigger exactly. With
            # real speeds the stop state toggles *only* on records
            # this marks, so the mirrored state stays in lockstep
            # with the scalar path. A NaN speed (derived distance/dt
            # speed, unknown here) is marked whenever a previous
            # report exists and degrades the mirror to a
            # conservative superset: while the state is unknown,
            # every record that could toggle either way is marked.
            sim = st.stopped if st is not None else False
            unknown = False
            stop_idx = []
            for k, s in enumerate(spd_seg.tolist()):
                if s != s:
                    if k > 0 or has_prev:
                        stop_idx.append(k)
                        unknown = True
                    continue
                if unknown:
                    if s < stop_sp or s >= stop_hi:
                        stop_idx.append(k)
                elif sim:
                    if s >= stop_hi:
                        stop_idx.append(k)
                        sim = False
                elif s < stop_sp:
                    stop_idx.append(k)
                    sim = True
            if stop_idx:
                flag[stop_idx] = True
            ex_int[pos[flag]] = True
        return ex_int, loit_map

    def _pair_guards(
        self, rb: RecordBatch, active: np.ndarray
    ) -> tuple[tuple[list[int], list, list], np.ndarray, int, np.ndarray]:
        """One as-of pair join over the active records.

        For each record and each other entity, the other's position "as
        of" that record is its latest earlier active record in the batch,
        or its pre-batch latest-map entry. ``src2[c, i]`` is the latest
        active row of vocabulary code ``c`` at or before row ``i`` (-1
        when none); a row's own code resolves to itself and is masked
        wherever the join is consumed, so ``src2`` always points at a
        *strictly earlier* row.

        Returns the proximity side (:meth:`_proximity_pairs`) and the
        mask, aligned with ``active``, of rows that may fire the
        collision detector.
        """
        n_active = int(active.size)
        if n_active == 0:
            none = np.zeros(0, dtype=bool)
            return ([0], [], []), none, 0, none
        codes = rb.entity_codes[active]
        eye = codes[None, :] == np.arange(len(rb.vocabulary))[:, None]
        src2 = np.maximum.accumulate(
            np.where(eye, np.arange(n_active)[None, :], -1), axis=1
        )
        prox, prox_vec, prox_band = self._proximity_pairs(rb, active, eye, src2)
        return prox, prox_vec, prox_band, self._collision_guard(rb, active, eye, src2)

    def _proximity_pairs(
        self, rb: RecordBatch, active: np.ndarray, eye: np.ndarray, src2: np.ndarray
    ) -> tuple[tuple[list[int], list, list], np.ndarray, int]:
        """The proximity side of the pair join, as events-to-be.

        One join row per entity that can be a candidate at all, one
        column per active record. The rows are the extractor's latest map
        in insertion order (entries outside the batch are frozen during
        it: one constant row each, dropped when already stale at the
        batch's earliest record), then the batch's new entities by first
        appearance — the order ``_proximity_events`` scans in. The
        candidate mask replicates its freshness and latitude-band
        prefilters exactly (same floats, same IEEE compares); hits are the
        scalar kernel's decision (:func:`repro.cep.simple.within_radius`).

        Returns ``((start, subjects, others), vector, band)``: the hits of
        active record ``i`` are ``start[i]:start[i + 1]`` of the subject
        and other-entity as-of report lists, in scan order; ``vector``
        marks records with near candidates whose fresh count reaches
        ``_VECTOR_MIN_CANDIDATES`` — there the scalar path takes distances
        from the vector kernel, so those records must replay through it;
        ``band`` counts the candidates the scalar kernel decided.
        """
        cfg = self._extractor.config
        stale = cfg.proximity_staleness_s
        radius = cfg.proximity_radius_m
        reports = rb.reports
        n_active = int(active.size)
        codes = rb.entity_codes[active]
        tA = rb.t[active]
        latA = rb.lat[active]
        lonA = rb.lon[active]

        # An entity can be in the batch vocabulary with zero *active* rows
        # (every record masked, e.g. dropped as out-of-order on re-ingest):
        # its join row is all-fallback, or absent when it has no state.
        code_of = {eid: c for c, eid in enumerate(rb.vocabulary)}
        t_first = tA.min()
        ent_code: list[int] = []
        ent_last: list[PositionReport | None] = []
        for oid, o in self._extractor._latest.items():
            c = code_of.pop(oid, -1)
            # Same float subtraction as the mask below, monotone in the
            # record's t: stale at the earliest record proves the whole
            # row False.
            if c >= 0 or not t_first - o.t > stale:
                ent_code.append(c)
                ent_last.append(o)
        has_row = eye.any(axis=1)
        first_row = eye.argmax(axis=1).tolist()
        for c in sorted(code_of.values(), key=first_row.__getitem__):
            if has_row[c]:
                ent_code.append(c)
                ent_last.append(None)
        ent_codes = np.array(ent_code, dtype=np.intp)
        # -inf timestamps make the staleness check unsatisfiable where no
        # pre-batch state exists.
        f_t = np.array([-np.inf if o is None else o.t for o in ent_last])
        f_lat = np.array([0.0 if o is None else o.lat for o in ent_last])
        f_lon = np.array([0.0 if o is None else o.lon for o in ent_last])

        # Code -1 (outside the batch) picks the appended all -1 row; a -1
        # source wraps to the last row under fancy indexing — harmless,
        # np.where discards it.
        src = np.vstack([src2, np.full((1, n_active), -1)])[ent_codes]
        has = src >= 0
        lat2 = np.where(has, latA[src], f_lat[:, None])
        cand = (
            (ent_codes[:, None] != codes[None, :])
            & ((tA[None, :] - np.where(has, tA[src], f_t[:, None])) <= stale)
            & (np.abs(latA[None, :] - lat2) * _METERS_PER_DEG_LAT_FLOOR <= radius)
        )
        if not cand.any():
            return ([0] * (n_active + 1), [], []), np.zeros(n_active, dtype=bool), 0
        # Transposed: candidates come out by record, then in scan order.
        recs, ents = np.nonzero(cand.T)
        ss = src[ents, recs]
        near, hit, band = within_radius(
            radius, lonA[recs], latA[recs],
            np.where(ss >= 0, lonA[ss], f_lon[ents]), lat2[ents, recs],
        )
        ss = ss[hit]
        others = [
            ent_last[e] if q < 0 else reports[q]
            for q, e in zip(np.where(ss >= 0, active[ss], -1).tolist(), ents[hit].tolist())
        ]
        subjects = list(map(reports.__getitem__, active[recs[hit]].tolist()))
        start = np.searchsorted(recs[hit], np.arange(n_active + 1)).tolist()
        n_near = np.bincount(recs[near], minlength=n_active)
        vector = (n_near > 0) & (cand.sum(axis=0) >= _VECTOR_MIN_CANDIDATES)
        return (start, subjects, others), vector, band

    def _collision_guard(
        self, rb: RecordBatch, active: np.ndarray, eye: np.ndarray, src2: np.ndarray
    ) -> np.ndarray:
        """The collision side of the pair join: the mask, aligned with
        ``active``, of rows that may fire the collision detector.

        Replicates the freshness, kinematics and latitude-band prefilters
        of ``CollisionRiskDetector._candidates`` exactly, bands the
        exact-distance cut by 1e-9 relative, and adds the conservative
        vectorized CPA/TCPA pre-check (:func:`_cpa_may_fire`). A row left
        unmasked provably raises no collision event.
        """
        coll = self._collision
        coll_latest = coll._latest
        coll_stale = coll.staleness_s
        coll_rad = coll.candidate_radius_m
        cpa_thr = coll.cpa_threshold_m
        tcpa_thr = coll.tcpa_threshold_s
        vocab = rb.vocabulary
        n_codes = len(vocab)
        tA = rb.t[active]
        latA = rb.lat[active]
        lonA = rb.lon[active]
        spdA = rb.speed[active]
        hdgA = rb.heading[active]
        kinA = ~(np.isnan(spdA) | np.isnan(hdgA))
        # All-None current altitudes force the scalar CPA 2-D and its
        # fire condition to the maritime branch (see _cpa_may_fire).
        use_cpa = bool(np.isnan(rb.alt).all())
        coll_may = np.zeros(int(active.size), dtype=bool)
        # Pre-batch fallback columns per code; -inf timestamps make the
        # staleness check unsatisfiable where no state exists.
        fc_t = np.full(n_codes, -np.inf)
        fc_lat = np.zeros(n_codes)
        fc_lon = np.zeros(n_codes)
        fc_spd = np.zeros(n_codes)
        fc_hdg = np.zeros(n_codes)
        fc_kin = np.zeros(n_codes, dtype=bool)
        for c2, eid2 in enumerate(vocab):
            oc = coll_latest.get(eid2)
            if oc is not None and oc.speed is not None and oc.heading is not None:
                fc_t[c2] = oc.t
                fc_lat[c2] = oc.lat
                fc_lon[c2] = oc.lon
                fc_spd[c2] = oc.speed
                fc_hdg[c2] = oc.heading
                fc_kin[c2] = True
        has2 = src2 >= 0
        T2 = np.where(has2, tA[src2], fc_t[:, None])
        LAT2 = np.where(has2, latA[src2], fc_lat[:, None])
        KIN2 = np.where(has2, kinA[src2], fc_kin[:, None])
        cand = (
            ~eye
            & kinA[None, :]
            & KIN2
            & ((tA[None, :] - T2) <= coll_stale)
            & (np.abs(latA[None, :] - LAT2) * _METERS_PER_DEG_LAT_FLOOR <= coll_rad)
        )
        if cand.any():
            rows, cols = np.nonzero(cand)
            hs = has2[rows, cols]
            ss = src2[rows, cols]
            LON2 = np.where(hs, lonA[ss], fc_lon[rows])
            LAT2s = LAT2[rows, cols]
            d = haversine_m_arrays(lonA[cols], latA[cols], LON2, LAT2s)
            near = d <= coll_rad * (1.0 + 1e-9)
            if use_cpa and near.any():
                rows = rows[near]
                cols = cols[near]
                hs = hs[near]
                ss = ss[near]
                fire = _cpa_may_fire(
                    lonA[cols], latA[cols], spdA[cols], hdgA[cols],
                    LON2[near], LAT2s[near],
                    np.where(hs, spdA[ss], fc_spd[rows]),
                    np.where(hs, hdgA[ss], fc_hdg[rows]),
                    cpa_thr, tcpa_thr,
                )
                coll_may[cols[fire]] = True
            elif not use_cpa:
                coll_may[cols[near]] = True
        # Latest-map entries outside the batch are frozen during it: one
        # constant column each, skipped when already stale at the batch's
        # earliest record (same float subtraction as the mask, monotone in
        # the row's t, so it proves the whole column False).
        batch_ids = frozenset(vocab)
        t_first = tA.min()
        for oid, o in coll_latest.items():
            if (
                oid in batch_ids
                or o.speed is None
                or o.heading is None
                or t_first - o.t > coll_stale
            ):
                continue
            cand = (
                kinA
                & ((tA - o.t) <= coll_stale)
                & (np.abs(latA - o.lat) * _METERS_PER_DEG_LAT_FLOOR <= coll_rad)
            )
            if cand.any():
                d = haversine_m_arrays(lonA, latA, o.lon, o.lat)
                cand &= d <= coll_rad * (1.0 + 1e-9)
                if use_cpa and cand.any():
                    cand &= _cpa_may_fire(
                        lonA, latA, spdA, hdgA,
                        o.lon, o.lat, o.speed, o.heading,
                        cpa_thr, tcpa_thr,
                    )
                coll_may |= cand
        return coll_may

    def _guarded_walk(
        self, rb: RecordBatch, active_l: list[int], ex_l: list[bool],
        coll_l: list[bool], loit_map: dict[int, ComplexEvent],
        cap_map: dict[int, list[ComplexEvent]] | None, prox: tuple[list[int], list, list],
    ) -> list[ComplexEvent]:
        """Fused simple-event + detector walk over the active records:
        guard-flagged ones call the scalar extractor / collision detector,
        the proximity hits between them are logged unbuilt as one
        :class:`ProximityRun`, per-entity state advances lazily, and the
        columnar loitering / capacity events are interleaved by position."""
        result = self._result
        obs = self._obs
        reports = rb.reports
        ex = self._extractor
        ex_states = ex._states
        ex_latest = ex._latest
        coll = self._collision
        coll_latest = coll._latest
        rdv = self._rendezvous
        rdv_pairs = rdv._pair_since
        hot = self._hotspots
        persist = self.config.persist_rdf
        codes_l = rb.entity_codes.tolist()
        t_l = rb.t.tolist()

        out: list[ComplexEvent] = []
        event_docs: list[list] = []
        # Latest unsynced record per code. Flushed (in first-
        # appearance order, preserving dict insertion order of new
        # entities) before every scalar component call and at batch
        # end; a flush is the exact state residue of the scalar call
        # for a no-event record, and re-flushing after a scalar call
        # is idempotent.
        pending: dict[int, int] = {}

        def _flush_pending() -> None:
            for c2, p2 in pending.items():
                r2 = reports[p2]
                eid2 = r2.entity_id
                st2 = ex_states.get(eid2)
                if st2 is None:
                    ex.advance_quiet(r2)
                else:
                    st2.last = r2
                    ex_latest[eid2] = r2
                coll_latest[eid2] = r2
            pending.clear()

        # Proximity hits read no extractor state and are no-ops for the
        # rendezvous detector: a record not replayed just joins the run
        # from `run_lo` (no flush, no `events`); a replayed one closes it.
        prox_start, prox_subj, prox_other = prox
        run_lo = 0

        def _append_run(lo: int, hi: int) -> None:
            result.simple_events.append_run(ProximityRun(prox_subj[lo:hi], prox_other[lo:hi]))
            ex._events_counter.inc(hi - lo)

        loit_get = loit_map.get
        rdv_process = rdv.process
        rdv_tick = rdv.tick
        for i, p in enumerate(active_l):
            r = reports[p]
            if ex_l[p]:
                if pending:
                    _flush_pending()
                _append_run(run_lo, prox_start[i])
                run_lo = prox_start[i + 1]
                events = ex.process(r)
                result.simple_events.extend(events)
            else:
                events = ()
            if coll_l[p]:
                if pending:
                    _flush_pending()
                cev = coll.process(r)
            else:
                cev = ()
            pending[codes_l[p]] = p

            # --- remaining detectors, in _run_detectors order -------
            new_complex = list(cev) if cev else None
            lev = loit_get(p)
            if lev is not None:
                new_complex = (new_complex or []) + [lev]
            if events:
                if new_complex is None:
                    new_complex = []
                for event in events:
                    new_complex.extend(rdv_process(event))
                new_complex.extend(rdv_tick(t_l[p]))
            elif rdv_pairs:
                # tick() with no co-stopped pairs is a pure no-op.
                ticked = rdv_tick(t_l[p])
                if ticked:
                    new_complex = (new_complex or []) + ticked
            if cap_map and p in cap_map:
                new_complex = (new_complex or []) + cap_map[p]
            if hot is not None:
                new_complex = (new_complex or []) + hot.process(r)
            if new_complex:
                if obs:
                    # Created lazily, exactly like _run_detectors: a
                    # run with no complex events never registers it.
                    self.metrics.counter("cep.complex_events").inc(len(new_complex))
                for event in new_complex:
                    result.complex_events.append(event)
                    if persist:
                        triples = self.transformer.event_to_triples(event)
                        event_docs.append(triples)
                        result.triples_stored += len(triples)
                out.extend(new_complex)

        _append_run(run_lo, prox_start[-1])
        if pending:
            _flush_pending()
        if event_docs:
            self.store.add_documents(event_docs)
        return out

    def _span(self, name: str, records: int = 0):
        """A child span when the current record is being traced, else a no-op."""
        if self._trace_this_record:
            return self.metrics.span(name, records=records)
        return NULL_SPAN

    def _retry_rng_for(self, stage: str) -> random.Random:
        """The per-stage backoff-jitter RNG stream (lazily created)."""
        rng = self._retry_rngs.get(stage)
        if rng is None:
            seed = self._chaos.seed if self._chaos is not None else 0
            rng = random.Random(stable_hash((seed, "retry", stage)))
            self._retry_rngs[stage] = rng
        return rng

    def _stage_call(self, stage: str, report: PositionReport, fn: Callable[[], T]) -> T:
        """Run one stage body under the chaos retry policy.

        Faults are injected at stage entry, before ``fn`` executes, so a
        retried attempt never observes a partially-applied stage. When the
        retry budget is exhausted, the report is dead-lettered and record
        processing aborts via :class:`_DeadLettered`.
        """
        if self._chaos is None:
            return fn()
        result = self._result
        policy = self._chaos.retry
        attempt = 0
        while True:
            try:
                if self._injector is not None:
                    self._injector.maybe_fail(stage)
                return fn()
            except TransientFault as exc:
                self._record_faulted = True
                result.stage_failures[stage] = result.stage_failures.get(stage, 0) + 1
                self.metrics.counter(f"pipeline.{stage}.failures").inc()
                if attempt >= policy.max_retries:
                    result.dead_letters.append(
                        DeadLetter(
                            stage=stage,
                            value=report,
                            event_time=report.t,
                            error=str(exc),
                            attempts=attempt + 1,
                        )
                    )
                    self.metrics.counter(f"pipeline.{stage}.dead_letters").inc()
                    raise _DeadLettered(stage) from exc
                result.simulated_backoff_s += policy.backoff_s(
                    attempt, self._retry_rng_for(stage)
                )
                result.stage_retries[stage] = result.stage_retries.get(stage, 0) + 1
                self.metrics.counter(f"pipeline.{stage}.retries").inc()
                attempt += 1

    def _process_stages(
        self, report: PositionReport, t_start: float = 0.0
    ) -> list[ComplexEvent]:
        result = self._result
        obs = self._obs
        # Chained timestamps: the record start passed by the caller doubles
        # as the first stage's start and each stage's end doubles as the
        # next stage's start, so timing all five stages costs one clock
        # read per stage (inter-stage bookkeeping is charged to the
        # following stage).
        if obs:
            pc = monotonic
            buf = self._lat_buf
            wall = self._stage_wall
            t_prev = t_start

        with self._span("pipeline.clean", records=1):
            ok = self._stage_call(
                "clean",
                report,
                lambda: self._dedup.accept(report) and self._plausibility.accept(report),
            )
        if obs:
            t_now = pc()
            buf["clean"].append(t_now - t_prev)
            wall["clean"] += t_now - t_prev
            t_prev = t_now
        if not ok:
            if obs:
                self._record_end = t_now
            return []
        result.reports_clean += 1

        with self._span("pipeline.synopses", records=1):
            annotated, keep = self._stage_call(
                "synopses", report, lambda: self._synopses.process(report)
            )
        if obs:
            t_now = pc()
            buf["synopses"].append(t_now - t_prev)
            wall["synopses"] += t_now - t_prev
            t_prev = t_now

        if keep:
            result.reports_kept += 1
            if self.config.persist_rdf:
                with self._span("pipeline.rdf", records=1):
                    result.triples_stored += self._stage_call(
                        "rdf",
                        report,
                        lambda: self._store_report_doc(
                            annotated, report, interlink=self.config.interlink
                        ),
                    )
                if obs:
                    t_now = pc()
                    buf["rdf"].append(t_now - t_prev)
                    wall["rdf"] += t_now - t_prev
                    t_prev = t_now
        elif self.config.persist_rdf and self.config.persist_raw_reports:
            with self._span("pipeline.rdf", records=1):
                result.triples_stored += self._stage_call(
                    "rdf",
                    report,
                    lambda: self._store_report_doc(report, report, interlink=False),
                )
            if obs:
                t_now = pc()
                buf["rdf"].append(t_now - t_prev)
                wall["rdf"] += t_now - t_prev
                t_prev = t_now

        with self._span("pipeline.events", records=1):
            simple_events = self._stage_call(
                "events", report, lambda: self._extractor.process(report)
            )
        result.simple_events.extend(simple_events)
        if obs:
            t_now = pc()
            buf["events"].append(t_now - t_prev)
            wall["events"] += t_now - t_prev
            t_prev = t_now

        with self._span("pipeline.detectors", records=1):
            new_complex = self._stage_call(
                "detectors", report, lambda: self._run_detectors(report, simple_events)
            )
        if obs:
            t_now = pc()
            buf["detectors"].append(t_now - t_prev)
            wall["detectors"] += t_now - t_prev
            self._record_end = t_now

        for event in new_complex:
            result.complex_events.append(event)
            if self.config.persist_rdf:
                triples = self.transformer.event_to_triples(event)
                self.store.add_document(triples)
                result.triples_stored += len(triples)
        if new_complex and obs:
            self._record_end = pc()

        return new_complex

    def _store_report_doc(
        self, item, report: PositionReport, interlink: bool
    ) -> int:
        """Persist one report document; returns the triple count added."""
        triples = self.transformer.report_to_triples(item)
        if interlink:
            triples.extend(self._interlink(report, triples[0].s))
        self.store.add_document(triples)
        return len(triples)

    def _run_detectors(
        self, report: PositionReport, simple_events: list[SimpleEvent]
    ) -> list[ComplexEvent]:
        """Run every complex-event detector over one report."""
        new_complex: list[ComplexEvent] = []
        with self._span("cep.collision"):
            new_complex.extend(self._collision.process(report))
        with self._span("cep.loitering"):
            new_complex.extend(self._loitering.process(report))
        with self._span("cep.rendezvous", records=len(simple_events)):
            for event in simple_events:
                new_complex.extend(self._rendezvous.process(event))
            new_complex.extend(self._rendezvous.tick(report.t))
        if self._capacity is not None:
            with self._span("cep.capacity"):
                new_complex.extend(self._capacity.process(report))
        if self._hotspots is not None:
            with self._span("cep.hotspots"):
                new_complex.extend(self._hotspots.process(report))
        if new_complex and self._obs:
            self.metrics.counter("cep.complex_events").inc(len(new_complex))
        return new_complex

    def _interlink(
        self,
        report: PositionReport,
        node,
        doc_sink: list | None = None,
        containing: "Sequence[Polygon] | None" = None,
    ) -> list:
        """Online integration: zone containment + weather enrichment links.

        Containment goes through the shared :class:`ZoneIndex` when one
        was built (same containing zones, same order, without the linear
        polygon scan); the columnar path passes ``containing`` precomputed
        from one bulk ray-cast per zone, which yields the identical zone
        list. ``doc_sink`` is the micro-batch hook: when given, a newly
        seen weather cell's document is appended there (for one bulk
        insert at stage end) instead of being stored immediately; the
        accounting is identical either way.
        """
        from repro.rdf import vocabulary as V
        from repro.rdf.terms import Triple
        from repro.rdf.transform import weather_iri, zone_iri

        links = []
        if containing is None:
            if self._zone_index is not None:
                containing = self._zone_index.containing(report.lon, report.lat)
            else:
                containing = (
                    z for z in self.zones if z.contains(report.lon, report.lat)
                )
        for zone in containing:
            links.append(Triple(node, V.PROP_WITHIN_ZONE, zone_iri(zone.name)))
        if self.weather is not None:
            cell = self.weather.observation_at(report.lon, report.lat, report.t)
            cell_key = (cell.cell_id, cell.t_start)
            if cell_key not in self._stored_weather_cells:
                self._stored_weather_cells.add(cell_key)
                weather_doc = self.transformer.weather_to_triples(cell)
                if doc_sink is None:
                    self.store.add_document(weather_doc)
                else:
                    doc_sink.append(weather_doc)
                self._result.triples_stored += len(weather_doc)
            links.append(
                Triple(node, V.PROP_HAS_WEATHER, weather_iri(cell.cell_id, cell.t_start))
            )
        return links

    def run(
        self,
        source: "Iterable[PositionReport] | Iterable[RecordBatch]",
        *,
        batch: BatchOptions | None = None,
        checkpoints: CheckpointOptions | None = None,
    ) -> PipelineResult:
        """Process one (event-time ordered) source end to end and finalize.

        The single run entry point. ``source`` is either a plain report
        stream or a stream of :class:`RecordBatch` instances (native
        columnar emission — e.g.
        :meth:`~repro.sources.generators.TrafficSample.record_batches`);
        the two keyword groups select the execution mode:

        - ``batch``: slice a report stream into micro-batches of
          ``batch.size`` and push them through :meth:`process_batch`
          (RecordBatch sources are already sliced and always run
          batched). Content-equivalent to the record-at-a-time path for
          any size — batching only trades per-record overhead against
          buffering.
        - ``checkpoints``: save a checkpoint every ``interval`` records
          (at the first batch boundary past each multiple when batching),
          and/or ``resume`` from the store's latest checkpoint, skipping
          the source prefix it covers. Resuming re-batches the remaining
          suffix, which is safe under batch-slicing invariance; a
          RecordBatch source is flattened to its record view for the
          skip.
        """
        run_started = monotonic()
        offset = 0
        cp_store: CheckpointStore | None = None
        cp_interval: int | None = None
        if checkpoints is not None:
            cp_store = checkpoints.store
            cp_interval = checkpoints.interval
            offset = checkpoints.start_offset
            if checkpoints.resume:
                checkpoint = cp_store.latest()
                if checkpoint is None:
                    raise ValueError("no checkpoint to resume from")
                self.restore(checkpoint.states)
                offset = checkpoint.source_offset
                if isinstance(source, ReplayLog):
                    source = source.read(offset)
                else:
                    source = itertools.islice(
                        _flatten_records(source), offset, None
                    )
        stream = iter(source)
        first = next(stream, None)
        if first is None:
            return self._finalize(run_started)

        def save(at_offset: int) -> None:
            started = monotonic()
            payload = self.snapshot()
            cp_store.save(
                Checkpoint(
                    checkpoint_id=cp_store.next_id(),
                    source_offset=at_offset,
                    states=payload,
                )
            )
            # Execution accounting like pipeline.path.*; recorded after
            # the snapshot, so a payload never carries its own cost.
            self.metrics.histogram("pipeline.checkpoint.save").record(
                monotonic() - started
            )
            self.metrics.counter("pipeline.checkpoint.bytes").inc(len(payload))

        if isinstance(first, RecordBatch) or batch is not None:
            batches: Iterable[Any] = itertools.chain((first,), stream)
            process: Callable[[Any], list[ComplexEvent]] = self.process_recordbatch
            if not isinstance(first, RecordBatch):
                batches = _iter_batches(batches, batch.size)
                process = self.process_batch
            boundary = offset // cp_interval if cp_interval else 0
            for b in batches:
                if len(b) == 0:
                    continue
                process(b)
                offset += len(b)
                if cp_interval and offset // cp_interval > boundary:
                    boundary = offset // cp_interval
                    save(offset)
            return self._finalize(run_started)
        for report in itertools.chain((first,), stream):
            self.process_report(report)
            offset += 1
            if cp_interval and offset % cp_interval == 0:
                save(offset)
        return self._finalize(run_started)

    def _finalize(self, run_started: float) -> PipelineResult:
        """Flush windowed detectors and summarize the run."""
        for detector in (self._capacity, self._hotspots):
            if detector is None:
                continue
            for event in detector.flush():
                self._result.complex_events.append(event)
                if self.config.persist_rdf:
                    triples = self.transformer.event_to_triples(event)
                    self.store.add_document(triples)
                    self._result.triples_stored += len(triples)
        self._result.wall_time_s = monotonic() - run_started
        self._flush_latency()
        self._result.stage_latency = {
            stage: hist.summary() for stage, hist in self._latency.items()
        }
        self._result.end_to_end = self._end_to_end.summary()
        if self.metrics.enabled:
            self._synopses.publish_metrics()
            self.metrics.gauge("pipeline.throughput_rps").set(
                self._result.throughput_rps
            )
            self._result.metrics = self.metrics.as_dict()
        return self._result

    def stage_wall_seconds(self) -> dict[str, float]:
        """Cumulative wall-clock seconds spent per stage since construction.

        Raw (un-normalized) elapsed time accumulated at the same stage
        boundaries that feed the latency histograms, on both ingest paths
        (per-record, columnar). ``end_to_end`` is the
        total pipeline wall, so per-stage shares are directly comparable
        across batch sizes. All zeros when the registry is disabled.
        """
        return dict(self._stage_wall)

    def _flush_latency(self) -> None:
        """Land the buffered per-record samples on the registry histograms."""
        if not self._obs:
            return
        for stage in sorted(self._lat_buf):
            buf = self._lat_buf[stage]
            if not buf:
                continue
            hist = self._end_to_end if stage == "end_to_end" else self._latency[stage]
            hist.record_many(buf)
            buf.clear()

    # -- checkpoint / recovery --------------------------------------------------

    #: Every attribute holding mutable run state. What ``__init__`` sets
    #: besides is in :attr:`_NOT_CHECKPOINTED`; rule C1 checks that each
    #: field is in exactly one of the two.
    _STATEFUL_COMPONENTS: tuple[str, ...] = (
        "_dedup",
        "_plausibility",
        "_synopses",
        "_extractor",
        "_collision",
        "_loitering",
        "_rendezvous",
        "_capacity",
        "_hotspots",
        "store",
        "_stored_weather_cells",
        "metrics",
        "_latency",
        "_end_to_end",
        "_result",
        "_injector",
        "_retry_rngs",
        "_stage_wall",
    )

    #: ``__init__`` fields a checkpoint leaves out, each with the reason.
    _NOT_CHECKPOINTED: dict[str, str] = {
        "config": "immutable configuration, rebuilt by the constructor",
        "registry": "caller-supplied entity registry, rebuilt by the constructor",
        "zones": "immutable configuration, rebuilt by the constructor",
        "domain": "immutable configuration, rebuilt by the constructor",
        "grid": "derived from bbox and config by the constructor",
        "transformer": "derived from grid and config by the constructor",
        "weather": "caller-supplied read-only source, rebuilt by the constructor",
        "executor": "stateless over the store; restore() rebinds it to the restored one",
        "_zone_index": "derived from zones by the constructor",
        "_obs": "derived from metrics; restore() recomputes it",
        "_trace_every": "derived from config and metrics; restore() recomputes it",
        "_lat_buf": "drained into the checkpointed registry by snapshot(); restore() clears it",
        "_trace_this_record": "per-record transient, dead at the record-boundary barrier",
        "_record_end": "per-record transient, dead at the record-boundary barrier",
        "_record_faulted": "per-record transient, dead at the record-boundary barrier",
        "_chaos": "immutable configuration; the injector it seeds is checkpointed",
        "_emitter": "derived from the store's dictionary; restore() rebuilds it",
    }

    def snapshot(self) -> bytes:
        """Serialize every stateful component into a checkpoint payload.

        A format-version header, then one ``pickle.dumps`` over the whole
        component dict, so references shared *between* components —
        notably the observability registry, whose instruments the store,
        synopses and extractor all hold — are memoized once and stay
        shared inside the payload. The store's append-only parts (term
        dictionary, partition logs) pickle as bytes they encoded earlier
        plus what they gained since, so the cost tracks the growth since
        the last snapshot, yet every payload holds all of it. The bytes
        alias no live state: the pipeline can keep ingesting and a store
        can write them out as they are. Buffered latency samples and
        deferred synopses counters are flushed first so the checkpointed
        registry reflects every record processed so far.
        """
        self._flush_latency()
        if self.metrics.enabled:
            self._synopses.publish_metrics()
        return _SNAPSHOT_HEADER + pickle.dumps(
            {name: getattr(self, name) for name in self._STATEFUL_COMPONENTS},
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def restore(self, payload: bytes) -> None:
        """Reinstate a :meth:`snapshot` payload on a compatibly-built pipeline.

        One ``pickle.loads`` builds fresh objects (cross-component sharing
        included), so the payload itself is never touched and can serve
        any number of further resume attempts. Only load payloads this
        program wrote — unpickling runs code.

        Raises:
            CheckpointVersionError: the payload was written in another
                format version; raised before any component is touched.
        """
        found = (
            int.from_bytes(payload[len(_SNAPSHOT_MAGIC) : len(_SNAPSHOT_HEADER)], "big")
            if payload.startswith(_SNAPSHOT_MAGIC)
            else 1
        )
        if found != SNAPSHOT_FORMAT:
            raise CheckpointVersionError(found, SNAPSHOT_FORMAT)
        states = pickle.loads(memoryview(payload)[len(_SNAPSHOT_HEADER) :])
        missing = [n for n in self._STATEFUL_COMPONENTS if n not in states]
        if missing:
            raise KeyError(f"checkpoint is missing component state: {missing}")
        for name in self._STATEFUL_COMPONENTS:
            setattr(self, name, states[name])
        self.executor = QueryExecutor(self.store, metrics=self.metrics)
        # Cached obs state follows the restored registry; unflushed samples
        # from after the checkpoint was taken must not leak into it.
        self._obs = self.metrics.enabled
        self._trace_every = self.config.trace_every_n if self._obs else 0
        for buf in self._lat_buf.values():
            buf.clear()
        # The emitter's interning caches are bound to the *replaced*
        # store's dictionary; rebuild (and re-verify) against the
        # restored one. Derived state only — nothing to checkpoint.
        self._emitter = self._build_emitter()

    @property
    def result(self) -> PipelineResult:
        """The (possibly still accumulating) run result."""
        return self._result
