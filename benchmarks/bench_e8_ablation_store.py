"""E8 (ablation) — what the "sophisticated" parts of the store buy.

Two ablations on the same workload and the same selective query:

- **spatio-temporal key off**: the transformer emits no st-key triples,
  so spatial partitioners degrade to hash routing and pruning vanishes.
- **partition-local strategy off**: the executor is forced down the
  global path (no pruning), isolating what the subject-star + pruning
  machinery contributes.

Expected shape: removing either ingredient costs most of the selective-
query speedup; result counts stay identical (ablations affect cost, not
correctness).
"""

import time

import pytest

from benchmarks.conftest import emit_table
from repro.geo.bbox import BBox
from repro.geo.grid import GeoGrid
from repro.query.ast import STWithinFilter, SelectQuery, TriplePattern, Variable
from repro.query.executor import ExecutionReport, QueryExecutor
from repro.query.planner import order_patterns
from repro.rdf import vocabulary as V
from repro.rdf.transform import RdfTransformer
from repro.store.parallel import ParallelRDFStore
from repro.store.partition import HilbertPartitioner


def _load(sample, grid, with_st_keys: bool):
    transformer = RdfTransformer(st_grid=grid if with_st_keys else None)
    store = ParallelRDFStore(HilbertPartitioner(grid, 8))
    for report in sample.reports:
        store.add_document(transformer.report_to_triples(report))
    return store


def _selective_query(box):
    n = Variable("n")
    t = Variable("t")
    return SelectQuery(
        select=(n,),
        patterns=(
            TriplePattern(n, V.PROP_TYPE, V.CLASS_SEMANTIC_NODE),
            TriplePattern(n, V.PROP_TIMESTAMP, t),
        ),
        filters=(STWithinFilter(n, box, 0.0, 3600.0),),
    )


def test_e8_store_ablations(benchmark, maritime_fleet):
    sample = maritime_fleet
    grid = GeoGrid(bbox=sample.world.bbox, nx=32, ny=32)
    box = BBox(23.4, 37.6, 24.2, 38.1)
    query = _selective_query(box)

    rows = []

    # Full system.
    store_full = _load(sample, grid, with_st_keys=True)
    executor = QueryExecutor(store_full)
    started = time.perf_counter()
    rows_full, report_full = executor.execute(query)
    wall_full = (time.perf_counter() - started) * 1000.0
    rows.append([
        "full (st-key + partition-local)",
        report_full.partitions_scanned,
        report_full.pruning_ratio,
        report_full.scan_s * 1000.0,
        wall_full,
        len(rows_full),
    ])

    # Ablation 1: no spatio-temporal keys → hash-like placement, no pruning.
    store_nokey = _load(sample, grid, with_st_keys=False)
    executor_nokey = QueryExecutor(store_nokey)
    started = time.perf_counter()
    rows_nokey, report_nokey = executor_nokey.execute(query)
    wall_nokey = (time.perf_counter() - started) * 1000.0
    rows.append([
        "no st-key encoding",
        report_nokey.partitions_scanned,
        report_nokey.pruning_ratio,
        report_nokey.scan_s * 1000.0,
        wall_nokey,
        len(rows_nokey),
    ])

    # Ablation 2: force the global path on the full store.
    ordered = order_patterns(query.patterns)
    report_global = ExecutionReport(partitions_total=store_full.n_partitions)
    started = time.perf_counter()
    global_rows = executor._execute_global(query, ordered, report_global)
    scan_global = (time.perf_counter() - started) * 1000.0
    projected = [{v: r[v] for v in query.select if v in r} for r in global_rows]
    wall_global = (time.perf_counter() - started) * 1000.0
    rows.append([
        "global strategy (no pruning)",
        report_global.partitions_scanned,
        report_global.pruning_ratio,
        scan_global,
        wall_global,
        len(projected),
    ])

    emit_table(
        "e8_ablation_store",
        "E8: store ablations on a selective spatio-temporal query",
        ["variant", "scanned", "pruning", "scan_ms", "wall_ms", "results"],
        rows,
    )

    # Correctness is invariant; the full system prunes, the ablations do not.
    assert len(rows_full) == len(rows_nokey) == len(projected)
    assert report_full.pruning_ratio > 0.0
    assert report_nokey.pruning_ratio == 0.0

    benchmark(lambda: executor.execute(query))


def test_e8b_planner_ablation(benchmark, maritime_fleet):
    """E8b: what pattern ordering buys the join.

    The same anchored query (one entity's nodes and their attributes)
    runs under three planners: the shape heuristic, the statistics-based
    estimator, and an adversarial worst-case order (the selective anchor
    pattern evaluated last). Results are identical; wall time is not.
    """
    from repro.query.ast import SelectQuery, TriplePattern, Variable
    from repro.query.planner import StatisticsEstimator, default_estimator
    from repro.rdf.transform import entity_iri

    sample = maritime_fleet
    grid = GeoGrid(bbox=sample.world.bbox, nx=32, ny=32)
    store = _load(sample, grid, with_st_keys=True)
    entity_id = next(iter(sample.truth))

    n, t, lon = Variable("n"), Variable("t"), Variable("lon")
    anchor = TriplePattern(n, V.PROP_OF_MOVING_OBJECT, entity_iri(entity_id))
    broad_t = TriplePattern(n, V.PROP_TIMESTAMP, t)
    broad_lon = TriplePattern(n, V.PROP_LON, lon)
    query = SelectQuery(select=(n, t), patterns=(anchor, broad_t, broad_lon))

    executor = QueryExecutor(store)

    def run_with(estimator):
        ordered = order_patterns(query.patterns, estimator=estimator)
        started = time.perf_counter()
        count = sum(
            1 for __row in executor._join(ordered, {}, partitions=None)
        )
        return (count, (time.perf_counter() - started) * 1000.0, ordered[0] is anchor)

    def worst_case(pattern, bound):
        return -default_estimator(pattern, bound)  # invert: broadest first

    rows = []
    for label, estimator in (
        ("shape heuristic", default_estimator),
        ("statistics", StatisticsEstimator(store)),
        ("worst-case order", worst_case),
    ):
        count, wall_ms, anchored_first = run_with(estimator)
        rows.append([label, count, anchored_first, wall_ms])
    emit_table(
        "e8b_planner",
        "E8b: pattern-order ablation on an entity-anchored join",
        ["planner", "results", "anchor_first", "wall_ms"],
        rows,
    )
    counts = {row[1] for row in rows}
    assert len(counts) == 1  # identical results
    # Both real planners put the selective anchor first; worst-case not.
    assert rows[0][2] and rows[1][2] and not rows[2][2]
    assert rows[2][3] > rows[0][3]

    benchmark(lambda: run_with(default_estimator))
