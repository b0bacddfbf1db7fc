"""Partition-scoped query evaluation over the parallel RDF store.

Execution strategy:

1. If the query is *subject-star* (all patterns share one subject
   variable) it is evaluated independently per partition and results are
   unioned — exact, because placement colocates a subject's triples.
   When the query also carries an ``ST_WITHIN`` filter on that subject,
   the partitioner prunes the partition set first.
2. Any other query shape is evaluated against the global view (each
   triple pattern scans all partitions) — always correct, never pruned.

Either way the join runs on dictionary ids. Each ``execute`` compiles
the planned patterns once: constants are encoded against the store
dictionary (an unknown constant matches nothing, so nothing is
scanned), each variable gets a slot in an ``int`` tuple row, and each
filter is attached to the first pattern that binds its variable — every
filter reads exactly one variable, so checking it there drops the row
as early as possible without changing the result. Terms are decoded
once, for the rows that leave the scan. Ids are one-to-one with the
dictionary's equality classes of terms, so id equality is term equality
and the id-level join is exact.

Spatio-temporal predicates read the executor's position column
(:mod:`repro.query.positions`), a float64 ``(lon, lat, t)`` row per node,
caught up with the partitions' insert logs before each read.
``ST_WITHIN`` is a membership test in one vector mask over the column.
``range_query`` runs no join at all: it walks the type pattern's
matches in join order and keeps the nodes the mask selected, and
``knn_nodes`` reads its candidates the same way.

Partitions are scanned one after another in the calling process, and
every phase time in the :class:`ExecutionReport` is measured wall time:
what pruning buys is read directly off ``scan_s`` and
``partitions_scanned``. Work that actually runs in parallel lives in
:mod:`repro.runtime` (worker processes) and :mod:`repro.serving` (shard
fan-out).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

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
from repro.query.positions import NO_TIME, NOT_A_NUMBER, NUMBER, PositionColumn
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
#: One solution inside the scan: the ids of the variables bound so far,
#: by slot (slots are numbered in the order the plan binds variables).
IdRow = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class _Step:
    """One planned pattern, compiled against the store dictionary.

    Attributes:
        consts: Constant id per position (s, p, o); None at variables.
        reads: Row slot per position holding a variable an earlier step
            bound; None elsewhere.
        binds: Positions whose ids extend the row — one per variable this
            step binds first, in slot order.
        repeats: Position pairs that must hold the same id (a variable
            bound here that occurs twice in the pattern).
        filters: ``(slot, test)`` for each filter on a variable bound here.
    """

    consts: tuple[int | None, int | None, int | None]
    reads: tuple[int | None, int | None, int | None]
    binds: tuple[int, ...]
    repeats: tuple[tuple[int, int], ...]
    filters: tuple[tuple[int, Callable[[int], bool]], ...]


@dataclass(frozen=True, slots=True)
class _Program:
    """A query's join compiled once per execute: steps in plan order."""

    steps: tuple[_Step, ...]
    slots: dict[Variable, int]


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
        metrics: Always ``{}``; read the executor's registry itself (a
            per-query copy of every histogram's percentiles cost more
            than the query).
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
        self._positions = PositionColumn(store, self.metrics)

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
        self,
        query: SelectQuery,
        total_started: float,
        parse_s: float | None,
        range_scan: bool = False,
    ) -> tuple[list[Bindings], ExecutionReport]:
        """Evaluate ``query``; ``parse_s`` is None when nothing was parsed.

        ``range_scan`` marks :meth:`range_query`'s query, which skips the
        join when the plan walks its type pattern first.
        """
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
                    local = (
                        self._execute_range
                        if range_scan and ordered[0] == query.patterns[0]
                        else self._execute_partition_local
                    )
                    rows = local(query, ordered, partitions, report)
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
        """Land phase latencies on the registry."""
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
        rows, report = self._execute(query, monotonic(), None, range_scan=True)
        return ([row[node_var] for row in rows], report)  # type: ignore[misc]

    # -- strategies ---------------------------------------------------------

    def _execute_partition_local(
        self,
        query: SelectQuery,
        ordered: list[TriplePattern],
        partitions: list[int],
        report: ExecutionReport,
    ) -> list[Bindings]:
        self._report_local(partitions, report)
        program = self._compile(ordered, query.filters)
        if program is None:
            return []
        rows = [row for idx in partitions for row in self._scan(program, (idx,))]
        return self._decode(rows, program, query)

    def _report_local(self, partitions: list[int], report: ExecutionReport) -> None:
        report.strategy = "partition-local"
        report.partitions_scanned = len(partitions)
        report.pruning_ratio = 1.0 - (len(partitions) / max(1, self.store.n_partitions))

    def _execute_range(
        self,
        query: SelectQuery,
        ordered: list[TriplePattern],
        partitions: list[int],
        report: ExecutionReport,
    ) -> list[Bindings]:
        """:meth:`range_query`'s rows without the join, in the join's order.

        The join would walk ``?n a Node`` per partition, keep the nodes
        that pass ``ST_WITHIN`` and extend each by its time, lon and lat
        objects: one row per combination, all projecting to ``?n``. A
        node in the column's mask has one of each, so it is one row; a
        multi-valued node is read exactly and repeated once per
        combination.
        """
        self._report_local(partitions, report)
        try_encode = self.store.dictionary.try_encode
        type_id = try_encode(V.PROP_TYPE)
        node_class = try_encode(V.CLASS_SEMANTIC_NODE)
        positions = self._positions
        predicates = positions.sync(partitions)
        if type_id is None or node_class is None or min(predicates) < 0:
            return []
        flt = query.filters[0]
        assert isinstance(flt, STWithinFilter)
        found = set(
            positions.nodes[
                positions.select(flt.bbox, flt.t_from, flt.t_to, NOT_A_NUMBER)
            ].tolist()
        )
        nodes: list[int] = []
        for idx in partitions:
            partition = self.store.partitions[idx]
            for node, __p, __o in self.store.match_ids(None, type_id, node_class, (idx,)):
                if node in found:
                    nodes.append(node)
                elif node in positions.multi and self._exact_within(node, flt):
                    lon_ids, lat_ids, t_ids = (partition.objects(node, p) for p in predicates)
                    nodes.extend([node] * (len(lon_ids) * len(lat_ids) * len(t_ids)))
        decode = self.store.dictionary.decode
        return [{flt.var: decode(node)} for node in nodes]

    def _execute_global(
        self,
        query: SelectQuery,
        ordered: list[TriplePattern],
        report: ExecutionReport,
    ) -> list[Bindings]:
        report.strategy = "global"
        report.partitions_scanned = self.store.n_partitions
        program = self._compile(ordered, query.filters)
        if program is None:
            return []
        return self._decode(self._scan(program, None), program, query)

    def _prune_partitions(self, query: SelectQuery, star_var: Variable) -> set[int]:
        for flt in query.filters:
            if isinstance(flt, STWithinFilter) and flt.var == star_var:
                return self.store.partitions_for_bbox(flt.bbox)
        return set(range(self.store.n_partitions))

    # -- id-level BGP join ----------------------------------------------------

    def _compile(
        self, patterns: list[TriplePattern], filters: tuple[Filter, ...]
    ) -> _Program | None:
        """Compile planned patterns + filters; None when no row can match.

        No row matches when a constant is not in the dictionary or a
        filter reads a variable that no pattern binds.
        """
        try_encode = self.store.dictionary.try_encode
        slots: dict[Variable, int] = {}
        steps: list[_Step] = []
        for pattern in patterns:
            consts: list[int | None] = []
            reads: list[int | None] = []
            first: dict[Variable, int] = {}
            repeats: list[tuple[int, int]] = []
            for position, term in enumerate((pattern.s, pattern.p, pattern.o)):
                if not isinstance(term, Variable):
                    term_id = try_encode(term)
                    if term_id is None:
                        return None
                    consts.append(term_id)
                    reads.append(None)
                    continue
                consts.append(None)
                reads.append(slots.get(term))
                if term in slots:
                    continue
                if term in first:
                    repeats.append((first[term], position))
                else:
                    first[term] = position
            for var in first:
                slots[var] = len(slots)
            steps.append(
                _Step(
                    consts=(consts[0], consts[1], consts[2]),
                    reads=(reads[0], reads[1], reads[2]),
                    binds=tuple(first.values()),
                    repeats=tuple(repeats),
                    filters=tuple(
                        (slots[flt.var], self._filter_test(flt))
                        for flt in filters
                        if flt.var in first
                    ),
                )
            )
        if any(flt.var not in slots for flt in filters):
            return None
        return _Program(steps=tuple(steps), slots=slots)

    def _scan(self, program: _Program, partitions: tuple[int, ...] | None) -> list[IdRow]:
        """Run the compiled join; id rows in nested-loop order.

        Each step extends every row with the matches of its pattern in
        :meth:`ParallelRDFStore.match_ids` order, so the rows come out in
        the order a depth-first nested-loop join would produce them.
        """
        match_ids = self.store.match_ids
        rows: list[IdRow] = [()]
        for step in program.steps:
            c_s, c_p, c_o = step.consts
            r_s, r_p, r_o = step.reads
            binds, repeats, filters = step.binds, step.repeats, step.filters
            extended: list[IdRow] = []
            for row in rows:
                hits = match_ids(
                    c_s if r_s is None else row[r_s],
                    c_p if r_p is None else row[r_p],
                    c_o if r_o is None else row[r_o],
                    partitions,
                )
                for triple in hits:
                    if repeats and any(triple[a] != triple[b] for a, b in repeats):
                        continue
                    new = row + tuple([triple[position] for position in binds])
                    for slot, test in filters:
                        if not test(new[slot]):
                            break
                    else:
                        extended.append(new)
            rows = extended
            if not rows:
                break
        return rows

    def _decode(
        self, rows: list[IdRow], program: _Program, query: SelectQuery
    ) -> list[Bindings]:
        """Bindings of the variables post-processing reads (projection + ORDER BY)."""
        wanted = list(query.select)
        if query.order_by is not None and query.order_by.var not in wanted:
            wanted.append(query.order_by.var)
        picks = [(var, program.slots[var]) for var in wanted]
        decode = self.store.dictionary.decode
        return [{var: decode(row[slot]) for var, slot in picks} for row in rows]

    # -- filters ----------------------------------------------------------------

    def _filter_test(self, flt: Filter) -> Callable[[int], bool]:
        """The filter as a test on its variable's id."""
        if isinstance(flt, CompareFilter):
            decode = self.store.dictionary.decode
            compare = flt.test
            return lambda term_id: compare(decode(term_id))
        return self._st_within_test(flt)

    def _st_within_test(self, flt: STWithinFilter) -> Callable[[int], bool]:
        """``ST_WITHIN`` on a node id: is it in the column's mask?

        A node that is not an IRI, or lacks a numeric lon or lat, fails;
        one without a numeric time passes only an unbounded interval. The
        first test syncs every partition and takes one mask over the
        whole column.
        """
        positions = self._positions
        passing: set[int] | None = None

        def test(node: int) -> bool:
            nonlocal passing
            if passing is None:
                positions.sync()
                rows = positions.select(flt.bbox, flt.t_from, flt.t_to, NO_TIME)
                passing = set(positions.nodes[rows].tolist())
            if node in passing:
                return True
            return node in positions.multi and self._exact_within(node, flt)

        return test

    def _exact_within(self, node: int, flt: STWithinFilter) -> bool:
        """``ST_WITHIN`` from the node's first lon/lat/time literals, read per node."""
        lon, lat, t = self._positions.exact(node)
        if lon is None or lat is None or not flt.bbox.contains(lon, lat):
            return False
        if t is None:
            return flt.t_from == float("-inf") and flt.t_to == float("inf")
        return flt.t_from <= t <= flt.t_to

    def _nodes_in_range(
        self, bbox: BBox, t_from: float, t_to: float
    ) -> Iterator[tuple[IRI, float, float, float]]:
        """Stream (node, lon, lat, t) of position nodes in a space-time box.

        Nodes come in the order of the type pattern's matches over the
        pruned partitions; a node needs a numeric lon, lat and time.
        """
        partitions = self.store.partitions_for_bbox(bbox)
        try_encode = self.store.dictionary.try_encode
        type_id = try_encode(V.PROP_TYPE)
        node_class = try_encode(V.CLASS_SEMANTIC_NODE)
        if type_id is None or node_class is None:
            return
        positions = self._positions
        positions.sync(partitions)
        rows = positions.select(bbox, t_from, t_to, NUMBER)
        found = dict(
            zip(
                positions.nodes[rows].tolist(),
                zip(positions.lon[rows].tolist(), positions.lat[rows].tolist(), positions.t[rows].tolist()),
            )
        )
        decode = self.store.dictionary.decode
        for node, __p, __o in self.store.match_ids(None, type_id, node_class, partitions):
            values = found.get(node)
            if values is not None:
                yield (decode(node), *values)  # type: ignore[misc]
            elif node in positions.multi:
                lon, lat, t = positions.exact(node)
                if lon is None or lat is None or t is None:
                    continue
                if bbox.contains(lon, lat) and t_from <= t <= t_to:
                    yield (decode(node), lon, lat, t)  # type: ignore[misc]
