"""Merging per-shard results into one run report.

Each worker returns its own :class:`~repro.core.pipeline.PipelineResult`
and :class:`~repro.obs.MetricsRegistry`. The :class:`ResultMerger` folds
them into a :class:`RuntimeResult`: counts sum, event streams concatenate
in shard order, and registries merge twice through the existing
prefix-merge API — once unprefixed into the aggregate namespace (so
``pipeline.clean`` totals are comparable to a single-process run) and
once under ``worker<i>.`` (so per-shard instruments stay inspectable).

:meth:`RuntimeResult.deterministic_bytes` is the crash-restart oracle:
a canonical serialization of everything a run's *content* determines
(counts, event streams, dead letters — never wall-clock or latency
values). A run that lost a worker mid-stream and restarted it from a
checkpoint must produce bytes identical to an uninterrupted run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.pipeline import PipelineResult
from repro.core.results import canonical_bytes, digest_of
from repro.model.events import ComplexEvent, SimpleEvent
from repro.obs.metrics import MetricsRegistry

__all__ = ["ShardOutcome", "RuntimeResult", "ResultMerger"]


@dataclass
class ShardOutcome:
    """One shard's complete story: result, registry, and runtime accounting."""

    shard_id: int
    result: PipelineResult
    registry: MetricsRegistry | None = None
    #: Records the router assigned to this shard (pre-admission).
    records_routed: int = 0
    #: Crash-restarts this shard needed to finish.
    restarts: int = 0
    #: Records shed at admission (0 under the lossless block policy).
    shed: int = 0
    #: The admission controller's final admit rate.
    final_admit_rate: float = 1.0


@dataclass
class RuntimeResult:
    """The merged report of one multi-process run."""

    n_workers: int
    shards: list[ShardOutcome] = field(default_factory=list)
    wall_time_s: float = 0.0
    #: Aggregate + per-worker registry snapshot (the common obs schema).
    metrics: dict = field(default_factory=dict)

    # -- merged counts ------------------------------------------------------

    def _sum(self, attr: str) -> int:
        return sum(getattr(s.result, attr) for s in self.shards)

    @property
    def reports_in(self) -> int:
        return self._sum("reports_in")

    @property
    def reports_clean(self) -> int:
        return self._sum("reports_clean")

    @property
    def reports_kept(self) -> int:
        return self._sum("reports_kept")

    @property
    def triples_stored(self) -> int:
        return self._sum("triples_stored")

    @property
    def simple_events(self) -> list[SimpleEvent]:
        """All shards' simple events, shard-major (deterministic order)."""
        return [e for s in self.shards for e in s.result.simple_events]

    @property
    def complex_events(self) -> list[ComplexEvent]:
        """All shards' complex events, shard-major (deterministic order)."""
        return [e for s in self.shards for e in s.result.complex_events]

    @property
    def dead_letter_count(self) -> int:
        return sum(s.result.dead_letter_count for s in self.shards)

    @property
    def restarts_total(self) -> int:
        return sum(s.restarts for s in self.shards)

    @property
    def shed_total(self) -> int:
        return sum(s.shed for s in self.shards)

    @property
    def workers_spawned(self) -> int:
        """Shards that actually got a process (elastic: empty shards don't)."""
        return len(self.shards)

    @property
    def throughput_rps(self) -> float:
        if self.wall_time_s <= 0:
            return 0.0
        return self.reports_in / self.wall_time_s

    def summary(self) -> dict[str, float]:
        """Flat numeric summary (the common report shape)."""
        return {
            "n_workers": float(self.n_workers),
            "workers_spawned": float(self.workers_spawned),
            "reports_in": float(self.reports_in),
            "reports_clean": float(self.reports_clean),
            "reports_kept": float(self.reports_kept),
            "triples_stored": float(self.triples_stored),
            # Per-shard lengths: counting must not build every event.
            "simple_events": float(sum(len(s.result.simple_events) for s in self.shards)),
            "complex_events": float(sum(len(s.result.complex_events) for s in self.shards)),
            "dead_letters": float(self.dead_letter_count),
            "restarts": float(self.restarts_total),
            "shed": float(self.shed_total),
            "wall_time_s": self.wall_time_s,
            "throughput_rps": self.throughput_rps,
        }

    def as_dict(self) -> dict:
        """``{"kind", "summary", "metrics", "shards"}`` — the shared schema."""
        return {
            "kind": "runtime",
            "summary": self.summary(),
            "metrics": self.metrics,
            "shards": [
                {
                    "shard_id": s.shard_id,
                    "records_routed": s.records_routed,
                    "restarts": s.restarts,
                    "shed": s.shed,
                    "final_admit_rate": s.final_admit_rate,
                    "summary": s.result.summary(),
                }
                for s in self.shards
            ],
        }

    # -- crash-restart oracle ----------------------------------------------

    def deterministic_payload(self) -> dict:
        """Everything the run's content determines, nothing timing does.

        Wall-clock, latency percentiles and throughput are excluded by
        construction; per-shard counts, the full event streams and the
        dead-letter ledger are included. Two runs over the same admitted
        stream — interrupted or not — must produce equal payloads.
        """
        return {
            "n_workers": self.n_workers,
            "shards": [
                {"shard_id": s.shard_id, **s.result.deterministic_payload()}
                for s in self.shards
            ],
        }

    def deterministic_bytes(self) -> bytes:
        """Canonical JSON encoding of :meth:`deterministic_payload`."""
        return canonical_bytes(self.deterministic_payload())

    def deterministic_digest(self) -> str:
        """SHA-256 of :meth:`deterministic_bytes` (the differential oracle)."""
        return digest_of(self.deterministic_payload())


class ResultMerger:
    """Folds shard outcomes into one :class:`RuntimeResult`.

    Args:
        metrics: The registry the merge lands on — normally the
            supervisor's, which already carries the ``runtime.*``
            counters (restarts, shed, admitted). Merged snapshot ends up
            in :attr:`RuntimeResult.metrics`.
        worker_prefix: Namespace for per-shard instruments
            (``worker<i>.pipeline.clean`` etc.).
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        worker_prefix: str = "worker",
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.worker_prefix = worker_prefix

    def merge(
        self,
        outcomes: list[ShardOutcome],
        n_workers: int,
        wall_time_s: float,
    ) -> RuntimeResult:
        """Merge shard outcomes (any order) into the canonical run report."""
        shards = sorted(outcomes, key=lambda o: o.shard_id)
        for outcome in shards:
            if outcome.registry is None:
                continue
            # Aggregate namespace: counters/histograms comparable 1:1
            # with a single-process run of the same stream...
            self.metrics.merge(outcome.registry)
            # ...and the per-worker namespace via the same prefix-merge API.
            self.metrics.merge(
                outcome.registry, prefix=f"{self.worker_prefix}{outcome.shard_id}."
            )
        result = RuntimeResult(
            n_workers=n_workers,
            shards=shards,
            wall_time_s=wall_time_s,
        )
        if self.metrics.enabled:
            self.metrics.gauge("runtime.throughput_rps").set(result.throughput_rps)
            result.metrics = self.metrics.as_dict()
        return result
