"""Spatio-temporal query answering over the parallel RDF store.

- :mod:`repro.query.ast` — query model: variables, triple patterns,
  spatio-temporal filters, SELECT queries.
- :mod:`repro.query.parser` — a small SPARQL-like textual query language
  with ``ST_WITHIN`` / ``ST_INTERVAL`` filters.
- :mod:`repro.query.planner` — selectivity-based pattern ordering.
- :mod:`repro.query.executor` — partition-scoped evaluation with
  pruning, plus kNN and trajectory retrieval helpers, reporting measured
  phase times (parse, plan, serial partition scan, post-processing).
"""

from repro.query.ast import (
    Variable,
    TriplePattern,
    STWithinFilter,
    CompareFilter,
    SelectQuery,
    OrderBy,
)
from repro.query.planner import order_patterns
from repro.query.executor import QueryExecutor, ExecutionReport
from repro.query.parser import parse_query

__all__ = [
    "Variable",
    "TriplePattern",
    "STWithinFilter",
    "CompareFilter",
    "SelectQuery",
    "OrderBy",
    "order_patterns",
    "QueryExecutor",
    "ExecutionReport",
    "parse_query",
]
