"""The warm serving core: sharded pipelines that stay queryable.

Everything in the repo before this module was an offline ``run()``: feed
a finite stream, get a result, throw the pipeline away. The
:class:`ServingRuntime` inverts that. It builds ``n_shards`` structurally
identical :class:`~repro.core.pipeline.MobilityPipeline` instances from
one picklable :class:`~repro.core.pipeline.PipelineSpec` (the exact
recipe the multi-process runtime ships to workers), keeps them alive,
and interleaves two kinds of traffic over them:

- **ingest** — record batches are key-partitioned by the same stable
  CRC-32 routing the runtime workers use
  (:class:`~repro.serving.routing.RequestRouter` over
  :class:`~repro.runtime.sharding.ShardRouter`) and pushed through each
  owning shard's ``process_batch`` hot path; per-entity latest state and
  a bounded trajectory history are updated, new events are appended to a
  sequence-numbered event log, and the result cache's invalidation tags
  (per-entity, per-grid-cell, global) are bumped;
- **reads** — entity-scoped requests (latest state, forecast,
  trajectory) are planned onto the one shard that owns the entity;
  spatial ranges and textual queries fan out over every shard's
  :class:`~repro.query.executor.QueryExecutor` and merge, with solution
  modifiers (ORDER BY / DISTINCT / LIMIT) applied globally after the
  merge so sharded evaluation stays semantics-preserving.

Every read flows through :meth:`ServingRuntime.handle`, which fronts the
:class:`~repro.serving.cache.ResultCache`: the response payload is
digest-stamped (:func:`repro.core.results.digest_of`) at fill time, so a
cache hit provably serves byte-identical content to a fresh execution —
the property the load harness re-verifies under concurrent ingest.

All timing uses :func:`repro.obs.clock.monotonic`; request latencies
land in per-endpoint ``serving.request.<endpoint>`` histograms gated by
:data:`repro.obs.slo.DEFAULT_SERVING_BUDGETS`.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from itertools import islice
from typing import Any, Mapping, Sequence

from repro.core.pipeline import MobilityPipeline, PipelineSpec
from repro.core.results import canonical_bytes, digest_of
from repro.forecasting.dead_reckoning import DeadReckoningPredictor
from repro.geo.bbox import BBox
from repro.model.reports import PositionReport
from repro.model.trajectory import Trajectory
from repro.obs.clock import monotonic
from repro.obs.metrics import MetricsRegistry
from repro.query.ast import SelectQuery, Variable
from repro.query.executor import QueryExecutor
from repro.serving.cache import (
    GLOBAL_TAG,
    CacheConfig,
    ResultCache,
    cell_tag,
    entity_tag,
)
from repro.serving.routing import RequestRouter, RouteDecision

__all__ = ["ServingConfig", "ServingResponse", "ServingRuntime", "ENDPOINTS"]

#: Every read endpoint :meth:`ServingRuntime.handle` dispatches.
ENDPOINTS: tuple[str, ...] = (
    "state",
    "forecast",
    "trajectory",
    "range",
    "query",
    "events",
)


@dataclasses.dataclass(frozen=True, slots=True)
class ServingConfig:
    """Shape of one serving runtime.

    Attributes:
        n_shards: Pipeline shards (key-routed, single process).
        cache: Result-cache capacity/TTL settings.
        history_len: Position samples retained per entity for
            forecasting (bounded ring; oldest fall off).
        forecast_window_s: Dead-reckoning velocity estimation window.
        default_horizon_s: Forecast lead time when a request names none.
        max_events: Event-log ring capacity (oldest events fall off;
            subscribers that lag further than this are cut loose).
    """

    n_shards: int = 4
    cache: CacheConfig = dataclasses.field(default_factory=CacheConfig)
    history_len: int = 128
    forecast_window_s: float = 60.0
    default_horizon_s: float = 600.0
    max_events: int = 100_000

    def __post_init__(self) -> None:
        if self.n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if self.history_len <= 0:
            raise ValueError("history_len must be positive")
        if self.default_horizon_s < 0:
            raise ValueError("default_horizon_s must be >= 0")
        if self.max_events <= 0:
            raise ValueError("max_events must be positive")


@dataclasses.dataclass(frozen=True, slots=True)
class ServingResponse:
    """One served result.

    Attributes:
        status: HTTP-style status (200, 400, 404, 429, 500).
        endpoint: Which endpoint produced it.
        payload: Plain-JSON response body.
        digest: SHA-256 of the payload's canonical encoding — computed
            at fill time, so cached and fresh executions of the same
            request are digest-comparable.
        cached: Whether the payload came from the result cache.
        shards: Shard indices the request touched (empty for sheds and
            validation failures).
        elapsed_ms: Server-side handling time in milliseconds.
    """

    status: int
    endpoint: str
    payload: dict
    digest: str
    cached: bool = False
    shards: tuple[int, ...] = ()
    elapsed_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def as_dict(self) -> dict:
        """Wire shape of the response (what the HTTP tier serializes)."""
        return {
            "status": self.status,
            "endpoint": self.endpoint,
            "payload": self.payload,
            "digest": self.digest,
            "cached": self.cached,
            "shards": list(self.shards),
        }


def _report_payload(report: PositionReport) -> dict:
    """A position report as plain JSON (the state endpoint's body)."""
    return {
        "entity_id": report.entity_id,
        "t": report.t,
        "lon": report.lon,
        "lat": report.lat,
        "alt": report.alt,
        "speed": report.speed,
        "heading": report.heading,
    }


class _EntityTrack:
    """Bounded per-entity history feeding the forecast endpoint."""

    __slots__ = ("points",)

    def __init__(self, maxlen: int) -> None:
        self.points: "deque[tuple[float, float, float, float | None]]" = deque(
            maxlen=maxlen
        )

    def append(self, report: PositionReport) -> None:
        # Trajectory construction requires strictly increasing
        # timestamps; a duplicate or out-of-order report refreshes
        # nothing here (the pipeline's dedup filter drops it anyway).
        if self.points and report.t <= self.points[-1][0]:
            return
        self.points.append((report.t, report.lon, report.lat, report.alt))

    def trajectory(self, entity_id: str) -> Trajectory:
        ts = [p[0] for p in self.points]
        lons = [p[1] for p in self.points]
        lats = [p[2] for p in self.points]
        alts = [p[3] for p in self.points]
        alt: list[float] | None = None
        if all(a is not None for a in alts):
            alt = [a for a in alts if a is not None]
        return Trajectory(entity_id, ts, lons, lats, alt=alt)


class ServingRuntime:
    """Sharded, always-queryable pipelines behind one request surface.

    Synchronous and deterministic by construction — the asyncio facade
    (:class:`repro.serving.app.ServingApp`) layers admission control and
    concurrency on top. Not thread-safe; one event loop (or one thread)
    owns an instance.
    """

    def __init__(
        self,
        spec: PipelineSpec,
        config: ServingConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or ServingConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.router = RequestRouter(self.config.n_shards)
        # One shared registry across shards: serving is single-process,
        # so per-shard instruments would only fragment the histograms
        # the SLO gate reads.
        self.shards: tuple[MobilityPipeline, ...] = tuple(
            spec.build(metrics=self.metrics) for __ in range(self.config.n_shards)
        )
        self.cache = ResultCache(self.config.cache, self.metrics)
        self._predictor = DeadReckoningPredictor(
            window_s=self.config.forecast_window_s
        )
        self._latest: list[dict[str, PositionReport]] = [
            {} for __ in range(self.config.n_shards)
        ]
        self._tracks: list[dict[str, _EntityTrack]] = [
            {} for __ in range(self.config.n_shards)
        ]
        self._events: "deque[dict]" = deque(maxlen=self.config.max_events)
        self._event_seq = 0
        self._grid = self.shards[0].grid

    # -- ingest ------------------------------------------------------------

    def ingest(self, reports: Sequence[PositionReport]) -> dict:
        """Feed a record batch through the owning shards, stay queryable.

        Partitions by the stable entity-key routing, runs each shard's
        ``process_batch`` hot path, updates latest-state/history, logs
        new events, and invalidates exactly the cache tags the batch
        touched (each entity, each covered grid cell, and the global
        tag). Returns a summary of what the batch did.
        """
        started = monotonic()
        new_events: list[dict] = []
        tags: set[str] = set()
        per_shard: list[list[PositionReport]] = [
            [] for __ in range(self.config.n_shards)
        ]
        for report in reports:
            per_shard[self.router.shard_for_entity(report.entity_id)].append(report)
            tags.add(entity_tag(report.entity_id))
            tags.add(cell_tag(self._grid.cell_id(report.lon, report.lat)))
        for shard_id, shard_reports in enumerate(per_shard):
            if not shard_reports:
                continue
            pipeline = self.shards[shard_id]
            simple_before = len(pipeline.live_result.simple_events)
            complex_events = pipeline.process_batch(shard_reports)
            latest = self._latest[shard_id]
            tracks = self._tracks[shard_id]
            for report in shard_reports:
                previous = latest.get(report.entity_id)
                if previous is None or report.t >= previous.t:
                    latest[report.entity_id] = report
                track = tracks.get(report.entity_id)
                if track is None:
                    track = tracks[report.entity_id] = _EntityTrack(
                        self.config.history_len
                    )
                track.append(report)
            # Keys of the batch's events only: no event is built and no
            # older chunk of the log is walked.
            for event_type, entity_id, t in pipeline.live_result.simple_events.keys(
                simple_before
            ):
                new_events.append(
                    {
                        "kind": "simple",
                        "event_type": event_type,
                        "entity_ids": [entity_id],
                        "t": t,
                        "shard": shard_id,
                    }
                )
            for event in complex_events:
                new_events.append(
                    {
                        "kind": "complex",
                        "event_type": event.event_type,
                        "entity_ids": list(event.entity_ids),
                        "t": event.t_start,
                        "t_end": event.t_end,
                        "shard": shard_id,
                    }
                )
        for event in new_events:
            event["seq"] = self._event_seq
            self._event_seq += 1
            self._events.append(event)
        if reports:
            tags.add(GLOBAL_TAG)
            self.cache.invalidate_tags(tags)
        elapsed = monotonic() - started
        self.metrics.counter("serving.ingest.batches").inc()
        self.metrics.counter("serving.ingest.reports").inc(len(reports))
        self.metrics.counter("serving.ingest.events").inc(len(new_events))
        self.metrics.histogram("serving.ingest.batch").record(elapsed)
        return {
            "reports": len(reports),
            "new_events": len(new_events),
            "event_seq": self._event_seq,
            "invalidated_tags": len(tags),
        }

    # -- read path ---------------------------------------------------------

    def handle(
        self,
        endpoint: str,
        params: Mapping[str, Any] | None = None,
        *,
        bypass_cache: bool = False,
    ) -> ServingResponse:
        """Serve one read request, cache-fronted and instrumented.

        ``bypass_cache`` executes fresh without reading or writing the
        cache — the differential arm the digest-equality checks compare
        against.
        """
        started = monotonic()
        params = dict(params or {})
        if endpoint not in ENDPOINTS:
            return self._finish(
                started,
                endpoint,
                ServingResponse(
                    status=400,
                    endpoint=endpoint,
                    payload={"error": f"unknown endpoint {endpoint!r}"},
                    digest="",
                ),
            )
        key = _cache_key(endpoint, params)
        if not bypass_cache:
            hit = self.cache.get(key, now=started)
            if hit is not None:
                status, payload, digest, shards = hit
                return self._finish(
                    started,
                    endpoint,
                    ServingResponse(
                        status=status,
                        endpoint=endpoint,
                        payload=payload,
                        digest=digest,
                        cached=True,
                        shards=shards,
                    ),
                )
        try:
            status, payload, tags, route = self._execute(endpoint, params)
        except (KeyError, TypeError, ValueError) as exc:
            response = ServingResponse(
                status=400,
                endpoint=endpoint,
                payload={"error": str(exc)},
                digest="",
            )
            return self._finish(started, endpoint, response)
        digest = digest_of(payload)
        if not bypass_cache:
            self.cache.put(
                key, (status, payload, digest, route.shards), tags, now=started
            )
        return self._finish(
            started,
            endpoint,
            ServingResponse(
                status=status,
                endpoint=endpoint,
                payload=payload,
                digest=digest,
                cached=False,
                shards=route.shards,
            ),
        )

    def _finish(
        self, started: float, endpoint: str, response: ServingResponse
    ) -> ServingResponse:
        elapsed = monotonic() - started
        self.metrics.counter("serving.requests").inc()
        self.metrics.counter(f"serving.responses.{response.status}").inc()
        if endpoint in ENDPOINTS:
            self.metrics.histogram(f"serving.request.{endpoint}").record(elapsed)
        return dataclasses.replace(response, elapsed_ms=elapsed * 1000.0)

    # -- endpoint executors ------------------------------------------------

    def _execute(
        self, endpoint: str, params: Mapping[str, Any]
    ) -> tuple[int, dict, set[str], RouteDecision]:
        if endpoint == "state":
            return self._exec_state(str(params["entity_id"]))
        if endpoint == "forecast":
            horizon = float(params.get("horizon_s", self.config.default_horizon_s))
            return self._exec_forecast(str(params["entity_id"]), horizon)
        if endpoint == "trajectory":
            return self._exec_trajectory(str(params["entity_id"]))
        if endpoint == "range":
            bbox = params["bbox"]
            if not isinstance(bbox, (list, tuple)) or len(bbox) != 4:
                raise ValueError("bbox must be [min_lon, min_lat, max_lon, max_lat]")
            return self._exec_range(
                BBox(*(float(v) for v in bbox)),
                float(params.get("t_from", float("-inf"))),
                float(params.get("t_to", float("inf"))),
            )
        if endpoint == "query":
            return self._exec_query(str(params["query"]))
        return self._exec_events(
            int(params.get("since", 0)), int(params.get("limit", 1000))
        )

    def _exec_state(
        self, entity_id: str
    ) -> tuple[int, dict, set[str], RouteDecision]:
        route = self.router.plan(entity_id)
        latest = self._latest[route.shards[0]].get(entity_id)
        tags = {entity_tag(entity_id)}
        if latest is None:
            return (404, {"error": f"no state for entity {entity_id!r}"}, tags, route)
        return (200, _report_payload(latest), tags, route)

    def _exec_forecast(
        self, entity_id: str, horizon_s: float
    ) -> tuple[int, dict, set[str], RouteDecision]:
        route = self.router.plan(entity_id)
        track = self._tracks[route.shards[0]].get(entity_id)
        tags = {entity_tag(entity_id)}
        if track is None or not track.points:
            return (
                404,
                {"error": f"no history for entity {entity_id!r}"},
                tags,
                route,
            )
        outcome = self._predictor.predict(track.trajectory(entity_id), horizon_s)
        payload = {
            "entity_id": entity_id,
            "horizon_s": horizon_s,
            "model": outcome.model,
            "confidence": outcome.confidence,
            "point": {
                "t": outcome.point.t,
                "lon": outcome.point.lon,
                "lat": outcome.point.lat,
                "alt": outcome.point.alt,
            },
        }
        return (200, payload, tags, route)

    def _exec_trajectory(
        self, entity_id: str
    ) -> tuple[int, dict, set[str], RouteDecision]:
        route = self.router.plan(entity_id)
        trajectory = self.shards[route.shards[0]].executor.entity_trajectory(
            entity_id
        )
        tags = {entity_tag(entity_id)}
        if len(trajectory) == 0:
            return (
                404,
                {"error": f"no stored trajectory for entity {entity_id!r}"},
                tags,
                route,
            )
        payload = {
            "entity_id": entity_id,
            "n_points": len(trajectory),
            "t": [float(v) for v in trajectory.t],
            "lon": [float(v) for v in trajectory.lon],
            "lat": [float(v) for v in trajectory.lat],
        }
        return (200, payload, tags, route)

    def _exec_range(
        self, bbox: BBox, t_from: float, t_to: float
    ) -> tuple[int, dict, set[str], RouteDecision]:
        route = self.router.plan(None)
        nodes: list[str] = []
        for shard_id in route.shards:
            shard_nodes, __ = self.shards[shard_id].executor.range_query(
                bbox, t_from, t_to
            )
            nodes.extend(str(node) for node in shard_nodes)
        nodes.sort()
        payload = {"n_results": len(nodes), "nodes": nodes}
        return (200, payload, self._bbox_tags(bbox), route)

    def _exec_query(self, text: str) -> tuple[int, dict, set[str], RouteDecision]:
        from repro.query.parser import parse_query

        route = self.router.plan(None)
        query = parse_query(text)
        # Shards evaluate the bare graph pattern + filters; solution
        # modifiers apply once, globally, after the merge (a per-shard
        # LIMIT would under-produce, per-shard DISTINCT under-dedup).
        stripped = dataclasses.replace(
            query, order_by=None, limit=None, distinct=False
        )
        merged: list[dict[Variable, Any]] = []
        for shard_id in route.shards:
            rows, __ = self.shards[shard_id].executor.execute(stripped)
            merged.extend(rows)
        if query.order_by is not None:
            merged = QueryExecutor._apply_order(merged, query.order_by)
        if query.distinct:
            seen: set = set()
            deduped = []
            for row in merged:
                dedup_key = tuple(
                    sorted((v.name, str(row[v])) for v in query.select if v in row)
                )
                if dedup_key not in seen:
                    seen.add(dedup_key)
                    deduped.append(row)
            merged = deduped
        if query.limit is not None:
            merged = merged[: query.limit]
        projected = [
            {v.name: str(row[v]) for v in query.select if v in row} for row in merged
        ]
        if query.order_by is None:
            # Without ORDER BY the result set is unordered; canonicalize
            # so cached and fresh merges are digest-comparable.
            projected.sort(key=lambda row: canonical_bytes(row))
        payload = {"n_results": len(projected), "rows": projected}
        return (200, payload, {GLOBAL_TAG}, route)

    def _exec_events(
        self, since: int, limit: int
    ) -> tuple[int, dict, set[str], RouteDecision]:
        if limit <= 0:
            raise ValueError("limit must be positive")
        route = self.router.plan(None)
        # The log holds the contiguous sequence numbers
        # [event_seq - len, event_seq), so ``since`` is an offset into it;
        # the window is walked from whichever end of the deque is nearer.
        log = self._events
        start = min(max(since - (self._event_seq - len(log)), 0), len(log))
        stop = min(start + limit, len(log))
        if start <= len(log) - stop:
            events = list(islice(log, start, stop))
        else:
            events = list(islice(reversed(log), len(log) - stop, len(log) - start))
            events.reverse()
        payload = {
            "n_results": len(events),
            "next_seq": (events[-1]["seq"] + 1) if events else self._event_seq,
            "events": events,
        }
        return (200, payload, {GLOBAL_TAG}, route)

    # -- helpers -----------------------------------------------------------

    def _bbox_tags(self, bbox: BBox) -> set[str]:
        """Every grid-cell tag a bbox intersects (clamped to the grid).

        Position nodes are the only spatially-indexed content, and an
        ingested report invalidates the tag of the cell it lands in, so
        tagging a range result with all covered cells is exact: any
        ingest that could change the result bumps at least one of them.
        """
        ix_lo, iy_lo = self._grid.cell_of(bbox.min_lon, bbox.min_lat)
        ix_hi, iy_hi = self._grid.cell_of(bbox.max_lon, bbox.max_lat)
        return {
            cell_tag(iy * self._grid.nx + ix)
            for iy in range(iy_lo, iy_hi + 1)
            for ix in range(ix_lo, ix_hi + 1)
        }

    def entity_ids(self) -> list[str]:
        """Every entity with live latest-state, sorted (harness helper)."""
        out: list[str] = []
        for latest in self._latest:
            out.extend(latest.keys())
        out.sort()
        return out

    def event_seq(self) -> int:
        """The next event sequence number (log cursor for subscribers)."""
        return self._event_seq

    def cache_hit_rate(self) -> float:
        """Cache hits over lookups so far (0.0 before any lookup)."""
        hits = self.metrics.counter("serving.cache.hit").value
        misses = self.metrics.counter("serving.cache.miss").value
        total = hits + misses
        return hits / total if total else 0.0


def _cache_key(endpoint: str, params: Mapping[str, Any]) -> str:
    """Canonical cache key of one request (endpoint + sorted params)."""
    return canonical_bytes({"endpoint": endpoint, "params": dict(params)}).decode(
        "utf-8"
    )
