"""The Term-level evaluator that the id-level executor is checked against.

``ReferenceExecutor`` is a :class:`QueryExecutor` whose strategies and
node scan run the join as it was before execution moved to dictionary
ids and the position column: a nested-loop join over decoded
``Triple``s with ``dict[Variable, Term]`` bindings, every filter checked
on the finished row, and ``ST_WITHIN`` re-reading the node's
lon/lat/time through ``store.match``. ``range_query`` runs that same
join instead of the executor's column walk. Planning, pruning and post-processing are the
executor's own. test_id_execution_differential.py requires both to
return the same rows in the same order and equal report payloads.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.geo.bbox import BBox
from repro.query.ast import CompareFilter, SelectQuery, STWithinFilter, TriplePattern, Variable
from repro.query.executor import Bindings, ExecutionReport, QueryExecutor
from repro.rdf import vocabulary as V
from repro.rdf.terms import IRI, Literal, Term

POSITION = (V.PROP_LON, V.PROP_LAT, V.PROP_TIMESTAMP)


class ReferenceExecutor(QueryExecutor):
    def _execute_partition_local(
        self, query: SelectQuery, ordered: list[TriplePattern], partitions: list[int], report: ExecutionReport
    ) -> list[Bindings]:
        report.strategy = "partition-local"
        report.partitions_scanned = len(partitions)
        report.pruning_ratio = 1.0 - (len(partitions) / max(1, self.store.n_partitions))
        return [row for idx in partitions for row in self._join(ordered, {}, (idx,)) if self._passes(row, query)]

    def _execute_range(
        self, query: SelectQuery, ordered: list[TriplePattern], partitions: list[int], report: ExecutionReport
    ) -> list[Bindings]:
        return self._execute_partition_local(query, ordered, partitions, report)

    def _execute_global(
        self, query: SelectQuery, ordered: list[TriplePattern], report: ExecutionReport
    ) -> list[Bindings]:
        report.strategy = "global"
        report.partitions_scanned = self.store.n_partitions
        return [row for row in self._join(ordered, {}, None) if self._passes(row, query)]

    def _join(
        self, patterns: list[TriplePattern], bindings: Bindings, partitions: Iterable[int] | None
    ) -> Iterator[Bindings]:
        if not patterns:
            yield dict(bindings)
            return
        head, *tail = patterns
        s, p, o = (bindings.get(t) if isinstance(t, Variable) else t for t in (head.s, head.p, head.o))
        for triple in self.store.match(s, p, o, partitions=partitions):
            extended = dict(bindings)
            for slot, value in ((head.s, triple.s), (head.p, triple.p), (head.o, triple.o)):
                if isinstance(slot, Variable) and extended.setdefault(slot, value) != value:
                    break
            else:
                yield from self._join(tail, extended, partitions)

    def _passes(self, row: Bindings, query: SelectQuery) -> bool:
        for flt in query.filters:
            term = row.get(flt.var)
            if isinstance(flt, CompareFilter):
                if term is None or not flt.test(term):
                    return False
            elif not self._st_within(term, flt):
                return False
        return True

    def _st_within(self, node: Term | None, flt: STWithinFilter) -> bool:
        if not isinstance(node, IRI):
            return False
        lon, lat, t = (self._node_literal(node, prop) for prop in POSITION)
        if lon is None or lat is None or not flt.bbox.contains(lon, lat):
            return False
        if t is None:
            return flt.t_from == float("-inf") and flt.t_to == float("inf")
        return flt.t_from <= t <= flt.t_to

    def _node_literal(self, node: IRI, prop: IRI) -> float | None:
        """A node's first literal ``prop`` value, as a float (None if absent or not numeric)."""
        for triple in self.store.match(node, prop, None):
            if isinstance(triple.o, Literal):
                try:
                    return float(triple.o.value)
                except (TypeError, ValueError):
                    return None
        return None

    def _nodes_in_range(self, bbox: BBox, t_from: float, t_to: float) -> Iterator[tuple[IRI, float, float, float]]:
        partitions = self.store.partitions_for_bbox(bbox)
        for triple in self.store.match(None, V.PROP_TYPE, V.CLASS_SEMANTIC_NODE, partitions=partitions):
            node = triple.s
            if not isinstance(node, IRI):
                continue
            lon, lat, t = (self._node_literal(node, prop) for prop in POSITION)
            if lon is None or lat is None or t is None:
                continue
            if bbox.contains(lon, lat) and t_from <= t <= t_to:
                yield (node, lon, lat, t)
