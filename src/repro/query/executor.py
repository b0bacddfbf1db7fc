"""Partition-scoped query evaluation over the parallel RDF store.

Execution strategy:

1. If the query is *subject-star* (all patterns share one subject
   variable) it is evaluated independently per partition and results are
   unioned — exact, because placement colocates a subject's triples.
   When the query also carries an ``ST_WITHIN`` filter on that subject,
   the partitioner prunes the partition set first.
2. Any other query shape is evaluated against the global view (each
   triple pattern scans all partitions) — always correct, never pruned.

Partitions are scanned one after another in the calling process, and
every phase time in the :class:`ExecutionReport` is measured wall time:
what pruning buys is read directly off ``scan_s`` and
``partitions_scanned``. Work that actually runs in parallel lives in
:mod:`repro.runtime` (worker processes) and :mod:`repro.serving` (shard
fan-out).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.core.results import canonical_bytes, digest_of
from repro.geo.bbox import BBox
from repro.geo.geodesy import haversine_m
from repro.model.trajectory import Trajectory
from repro.model.points import Domain
from repro.obs.clock import monotonic
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.query.ast import (
    CompareFilter,
    Filter,
    STWithinFilter,
    SelectQuery,
    TriplePattern,
    Variable,
)
from repro.query.planner import (
    CardinalityEstimator,
    StatisticsEstimator,
    default_estimator,
    order_patterns,
)
from repro.rdf import vocabulary as V
from repro.rdf.terms import IRI, Literal, Term, Triple
from repro.rdf.transform import entity_iri
from repro.store.parallel import ParallelRDFStore

Bindings = dict[Variable, Term]


@dataclass
class ExecutionReport:
    """What the executor did and how long each phase took.

    Every phase of evaluation is timed — parse (only via
    :meth:`QueryExecutor.execute_text`), planning (pattern ordering +
    partition pruning), the partition scans, and result post-processing
    (order/distinct/limit/projection) — and :attr:`total_s` covers the
    whole call, so the phase times account for the total.

    Attributes:
        n_results: Number of result bindings.
        partitions_total: Partition count of the store.
        partitions_scanned: Partitions actually evaluated after pruning.
        pruning_ratio: ``1 - scanned/total`` (0 when nothing was pruned).
        strategy: ``"partition-local"`` or ``"global"``.
        parse_s: Text-to-AST time (0 when executing a prebuilt query).
        plan_s: Pattern ordering + partition pruning time.
        scan_s: Wall time of the partition scans, run one after another.
        postprocess_s: Order/distinct/limit/projection time.
        total_s: Wall time of the whole execute call (including parse).
        metrics: Snapshot of the executor's observability registry
            (cumulative across queries; ``{}`` without a registry).
    """

    n_results: int = 0
    partitions_total: int = 0
    partitions_scanned: int = 0
    pruning_ratio: float = 0.0
    strategy: str = "global"
    parse_s: float = 0.0
    plan_s: float = 0.0
    scan_s: float = 0.0
    postprocess_s: float = 0.0
    total_s: float = 0.0
    metrics: dict = field(default_factory=dict)

    def phase_times(self) -> dict[str, float]:
        """Per-phase wall times in seconds (they sum to ≈ :attr:`total_s`)."""
        return {
            "parse_s": self.parse_s,
            "plan_s": self.plan_s,
            "scan_s": self.scan_s,
            "postprocess_s": self.postprocess_s,
        }

    def summary(self) -> dict[str, float]:
        """Flat numeric summary (the common report shape, see as_dict)."""
        return {
            "n_results": float(self.n_results),
            "partitions_total": float(self.partitions_total),
            "partitions_scanned": float(self.partitions_scanned),
            "pruning_ratio": self.pruning_ratio,
            "parse_ms": self.parse_s * 1000.0,
            "plan_ms": self.plan_s * 1000.0,
            "scan_ms": self.scan_s * 1000.0,
            "postprocess_ms": self.postprocess_s * 1000.0,
            "total_ms": self.total_s * 1000.0,
        }

    def as_dict(self) -> dict:
        """The common observability report shape.

        ``{"kind", "summary", "metrics"}`` — the same schema as
        :meth:`repro.core.pipeline.PipelineResult.as_dict`.
        """
        return {"kind": "query", "summary": self.summary(), "metrics": self.metrics}

    def deterministic_payload(self) -> dict:
        """Everything the query's content determines, nothing timing does.

        Result count, partition accounting and the chosen strategy are
        functions of store content + query; every ``*_s`` field is wall
        time and is excluded, so the same query over the same store
        digests identically however slowly it ran.
        """
        return {
            "n_results": self.n_results,
            "partitions_total": self.partitions_total,
            "partitions_scanned": self.partitions_scanned,
            "pruning_ratio": self.pruning_ratio,
            "strategy": self.strategy,
        }

    def deterministic_bytes(self) -> bytes:
        """Canonical JSON encoding of :meth:`deterministic_payload`."""
        return canonical_bytes(self.deterministic_payload())

    def deterministic_digest(self) -> str:
        """SHA-256 of :meth:`deterministic_bytes`."""
        return digest_of(self.deterministic_payload())


class QueryExecutor:
    """Evaluates :class:`SelectQuery` objects over a parallel store.

    Args:
        store: The parallel RDF store to query.
        use_statistics: Plan pattern order from actual store match counts
            (:class:`repro.query.planner.StatisticsEstimator`) instead of
            the shape heuristic. Pays a few count lookups per query,
            avoids pathological orders on skewed data.
        metrics: Observability registry; when given (and enabled), every
            execute is wrapped in ``query.*`` spans, phase latencies land
            in ``query.parse`` / ``query.plan`` / ``query.scan`` /
            ``query.postprocess`` / ``query.total`` histograms, and the
            :class:`ExecutionReport` carries the registry snapshot.
    """

    def __init__(
        self,
        store: ParallelRDFStore,
        use_statistics: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.store = store
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._estimator: CardinalityEstimator = (
            StatisticsEstimator(store) if use_statistics else default_estimator
        )

    # -- public API ---------------------------------------------------------

    def execute(self, query: SelectQuery) -> tuple[list[Bindings], ExecutionReport]:
        """Evaluate a query; returns projected bindings and the report.

        Every phase is timed into the report — planning (pattern
        ordering + pruning), partition scans, and post-processing — and
        ``report.total_s`` covers the whole call, so phase times account
        for the total (see :meth:`ExecutionReport.phase_times`).
        """
        return self._execute(query, monotonic(), None)

    def execute_text(self, text: str) -> tuple[list[Bindings], ExecutionReport]:
        """Parse and evaluate a textual query, timing the parse phase.

        The returned report's ``parse_s`` covers text-to-AST time and is
        included in ``total_s`` — no phase is dropped from the totals.
        """
        from repro.query.parser import parse_query

        total_started = monotonic()
        with self.metrics.span("query.parse"):
            query = parse_query(text)
        return self._execute(query, total_started, monotonic() - total_started)

    def _execute(
        self, query: SelectQuery, total_started: float, parse_s: float | None
    ) -> tuple[list[Bindings], ExecutionReport]:
        """Evaluate ``query``; ``parse_s`` is None when nothing was parsed."""
        report = ExecutionReport(
            partitions_total=self.store.n_partitions, parse_s=parse_s or 0.0
        )
        with self.metrics.span("query.execute") as root_span:
            plan_started = monotonic()
            with self.metrics.span("query.plan"):
                star_var = query.is_subject_star()
                ordered = order_patterns(query.patterns, estimator=self._estimator)
                partitions = (
                    sorted(self._prune_partitions(query, star_var))
                    if star_var is not None
                    else None
                )
            report.plan_s = monotonic() - plan_started
            scan_started = monotonic()
            with self.metrics.span("query.scan") as scan_span:
                if star_var is not None and partitions is not None:
                    rows = self._execute_partition_local(
                        query, ordered, partitions, report
                    )
                else:
                    rows = self._execute_global(query, ordered, report)
                scan_span.add_records(len(rows))
            report.scan_s = monotonic() - scan_started
            post_started = monotonic()
            with self.metrics.span("query.postprocess"):
                if query.order_by is not None:
                    rows = self._apply_order(rows, query.order_by)
                if query.distinct:
                    # Deduplicate on the projection (SPARQL DISTINCT
                    # semantics), preserving the (possibly ordered) first
                    # occurrence.
                    seen: set = set()
                    deduped: list[Bindings] = []
                    for row in rows:
                        key = tuple(sorted(
                            (v.name, str(row[v])) for v in query.select if v in row
                        ))
                        if key not in seen:
                            seen.add(key)
                            deduped.append(row)
                    rows = deduped
                if query.limit is not None:
                    rows = rows[: query.limit]
                projected = [
                    {v: row[v] for v in query.select if v in row} for row in rows
                ]
            report.postprocess_s = monotonic() - post_started
            report.n_results = len(projected)
            root_span.add_records(len(projected))
        report.total_s = monotonic() - total_started
        self._record_query_metrics(report, parsed=parse_s is not None)
        return (projected, report)

    def _record_query_metrics(self, report: ExecutionReport, parsed: bool) -> None:
        """Land phase latencies on the registry and snapshot it."""
        if not self.metrics.enabled:
            return
        if parsed:
            self.metrics.histogram("query.parse").record(report.parse_s)
        self.metrics.histogram("query.plan").record(report.plan_s)
        self.metrics.histogram("query.scan").record(report.scan_s)
        self.metrics.histogram("query.postprocess").record(report.postprocess_s)
        self.metrics.histogram("query.total").record(report.total_s)
        self.metrics.counter("query.executed").inc()
        self.metrics.counter("query.results").inc(report.n_results)
        report.metrics = self.metrics.as_dict()

    @staticmethod
    def _apply_order(rows: list[Bindings], order: Any) -> list[Bindings]:
        def key(row: Bindings) -> tuple[int, float, str]:
            term = row.get(order.var)
            if term is None:
                return (2, 0.0, "")
            if isinstance(term, Literal):
                try:
                    return (0, float(term.value), "")
                except (TypeError, ValueError):
                    return (1, 0.0, str(term))
            return (1, 0.0, str(term))

        return sorted(rows, key=key, reverse=order.descending)

    def count_by(
        self,
        group_var: Variable,
        query: SelectQuery,
    ) -> list[tuple[Term, int]]:
        """GROUP BY + COUNT: result rows grouped on one variable.

        Returns ``(group term, count)`` pairs sorted by descending count —
        the aggregation workhorse behind "events per entity", "nodes per
        cell" style questions. The grouping variable must appear in the
        query's patterns (it need not be projected).
        """
        pattern_vars: set[Variable] = set()
        for pattern in query.patterns:
            pattern_vars |= pattern.variables()
        if group_var not in pattern_vars:
            raise ValueError(f"{group_var} not bound by the query's patterns")
        widened = SelectQuery(
            select=tuple(dict.fromkeys(query.select + (group_var,))),
            patterns=query.patterns,
            filters=query.filters,
        )
        rows, __ = self.execute(widened)
        counts: dict[Term, int] = {}
        for row in rows:
            term = row.get(group_var)
            if term is None:
                continue
            counts[term] = counts.get(term, 0) + 1
        return sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))

    def describe(self, subject: Term) -> list[Triple]:
        """All triples of one subject (SPARQL DESCRIBE-lite).

        Placement colocates a subject's document, so the lookup touches
        exactly one partition when the subject is known.
        """
        return list(self.store.match(subject, None, None))

    def entity_trajectory(self, entity_id: str, domain: Domain = Domain.MARITIME) -> Trajectory:
        """Trajectory retrieval: all position nodes of an entity, by time."""
        node_var = Variable("n")
        t_var, lon_var, lat_var = Variable("t"), Variable("lon"), Variable("lat")
        query = SelectQuery(
            select=(t_var, lon_var, lat_var),
            patterns=(
                TriplePattern(node_var, V.PROP_OF_MOVING_OBJECT, entity_iri(entity_id)),
                TriplePattern(node_var, V.PROP_TIMESTAMP, t_var),
                TriplePattern(node_var, V.PROP_LON, lon_var),
                TriplePattern(node_var, V.PROP_LAT, lat_var),
            ),
        )
        rows, __ = self.execute(query)
        samples = sorted(
            (
                float(row[t_var].value),  # type: ignore[union-attr]
                float(row[lon_var].value),  # type: ignore[union-attr]
                float(row[lat_var].value),  # type: ignore[union-attr]
            )
            for row in rows
        )
        return Trajectory(
            entity_id,
            [s[0] for s in samples],
            [s[1] for s in samples],
            [s[2] for s in samples],
            domain=domain,
        )

    def knn_nodes(
        self,
        lon: float,
        lat: float,
        k: int,
        t_from: float = float("-inf"),
        t_to: float = float("inf"),
        initial_radius_deg: float = 0.1,
    ) -> list[tuple[IRI, float]]:
        """The k nearest position nodes to a point within a time interval.

        Expanding-ring search: range queries with doubling radius until at
        least ``k`` candidates are found, then an exact distance sort.
        Returns ``(node IRI, distance_m)`` pairs, nearest first.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        radius = initial_radius_deg
        seen: dict[IRI, float] = {}
        for __ in range(12):
            bbox = BBox(
                max(-180.0, lon - radius),
                max(-90.0, lat - radius),
                min(180.0, lon + radius),
                min(90.0, lat + radius),
            )
            for node, nlon, nlat, __t in self._nodes_in_range(bbox, t_from, t_to):
                if node not in seen:
                    seen[node] = haversine_m(lon, lat, nlon, nlat)
            if len(seen) >= k or radius > 360.0:
                break
            radius *= 2.0
        ranked = sorted(seen.items(), key=lambda kv: kv[1])
        return ranked[:k]

    def range_query(
        self, bbox: BBox, t_from: float = float("-inf"), t_to: float = float("inf")
    ) -> tuple[list[IRI], ExecutionReport]:
        """All position nodes inside a space-time box (the E4 workhorse)."""
        node_var = Variable("n")
        t_var, lon_var, lat_var = Variable("t"), Variable("lon"), Variable("lat")
        query = SelectQuery(
            select=(node_var,),
            patterns=(
                TriplePattern(node_var, V.PROP_TYPE, V.CLASS_SEMANTIC_NODE),
                TriplePattern(node_var, V.PROP_TIMESTAMP, t_var),
                TriplePattern(node_var, V.PROP_LON, lon_var),
                TriplePattern(node_var, V.PROP_LAT, lat_var),
            ),
            filters=(STWithinFilter(node_var, bbox, t_from, t_to),),
        )
        rows, report = self.execute(query)
        return ([row[node_var] for row in rows], report)  # type: ignore[misc]

    # -- strategies ---------------------------------------------------------

    def _execute_partition_local(
        self,
        query: SelectQuery,
        ordered: list[TriplePattern],
        partitions: list[int],
        report: ExecutionReport,
    ) -> list[Bindings]:
        report.strategy = "partition-local"
        report.partitions_scanned = len(partitions)
        report.pruning_ratio = 1.0 - (len(partitions) / max(1, self.store.n_partitions))
        return [
            row
            for idx in partitions
            for row in self._join(ordered, {}, partitions=(idx,))
            if self._passes_filters(row, query.filters)
        ]

    def _execute_global(
        self,
        query: SelectQuery,
        ordered: list[TriplePattern],
        report: ExecutionReport,
    ) -> list[Bindings]:
        report.strategy = "global"
        report.partitions_scanned = self.store.n_partitions
        return [
            row
            for row in self._join(ordered, {}, partitions=None)
            if self._passes_filters(row, query.filters)
        ]

    def _prune_partitions(self, query: SelectQuery, star_var: Variable) -> set[int]:
        for flt in query.filters:
            if isinstance(flt, STWithinFilter) and flt.var == star_var:
                return self.store.partitions_for_bbox(flt.bbox)
        return set(range(self.store.n_partitions))

    # -- BGP join -------------------------------------------------------------

    def _join(
        self,
        patterns: list[TriplePattern],
        bindings: Bindings,
        partitions: Iterable[int] | None,
    ) -> Iterator[Bindings]:
        if not patterns:
            yield dict(bindings)
            return
        head, *tail = patterns
        s = self._resolve(head.s, bindings)
        p = self._resolve(head.p, bindings)
        o = self._resolve(head.o, bindings)
        for triple in self.store.match(s, p, o, partitions=partitions):
            extended = self._extend(head, triple, bindings)
            if extended is None:
                continue
            yield from self._join(tail, extended, partitions)

    @staticmethod
    def _resolve(term: Any, bindings: Bindings) -> Term | None:
        if isinstance(term, Variable):
            return bindings.get(term)
        return term

    @staticmethod
    def _extend(pattern: TriplePattern, triple: Triple, bindings: Bindings) -> Bindings | None:
        extended = dict(bindings)
        for slot, value in ((pattern.s, triple.s), (pattern.p, triple.p), (pattern.o, triple.o)):
            if isinstance(slot, Variable):
                bound = extended.get(slot)
                if bound is None:
                    extended[slot] = value
                elif bound != value:
                    return None
        return extended

    # -- filters ----------------------------------------------------------------

    def _passes_filters(self, row: Bindings, filters: tuple[Filter, ...]) -> bool:
        for flt in filters:
            if isinstance(flt, CompareFilter):
                term = row.get(flt.var)
                if term is None or not flt.test(term):
                    return False
            elif isinstance(flt, STWithinFilter):
                if not self._st_within(row, flt):
                    return False
        return True

    def _st_within(self, row: Bindings, flt: STWithinFilter) -> bool:
        node = row.get(flt.var)
        if not isinstance(node, IRI):
            return False
        lon = self._node_literal(node, V.PROP_LON)
        lat = self._node_literal(node, V.PROP_LAT)
        t = self._node_literal(node, V.PROP_TIMESTAMP)
        if lon is None or lat is None:
            return False
        if not flt.bbox.contains(lon, lat):
            return False
        if t is None:
            return flt.t_from == float("-inf") and flt.t_to == float("inf")
        return flt.t_from <= t <= flt.t_to

    def _node_literal(self, node: IRI, prop: IRI) -> float | None:
        """A node's first literal ``prop`` value from the store, as a float.

        None when the node has no literal for ``prop`` or it is not numeric.
        """
        for triple in self.store.match(node, prop, None):
            if isinstance(triple.o, Literal):
                try:
                    return float(triple.o.value)
                except (TypeError, ValueError):
                    return None
        return None

    def _nodes_in_range(
        self, bbox: BBox, t_from: float, t_to: float
    ) -> Iterator[tuple[IRI, float, float, float]]:
        """Stream (node, lon, lat, t) of position nodes in a space-time box."""
        partitions = self.store.partitions_for_bbox(bbox)
        for triple in self.store.match(
            None, V.PROP_TYPE, V.CLASS_SEMANTIC_NODE, partitions=partitions
        ):
            node = triple.s
            if not isinstance(node, IRI):
                continue
            lon = self._node_literal(node, V.PROP_LON)
            lat = self._node_literal(node, V.PROP_LAT)
            t = self._node_literal(node, V.PROP_TIMESTAMP)
            if lon is None or lat is None or t is None:
                continue
            if bbox.contains(lon, lat) and t_from <= t <= t_to:
                yield (node, lon, lat, t)
