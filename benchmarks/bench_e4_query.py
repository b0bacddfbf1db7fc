"""E4 — "parallel query processing ... parallel RDF stores, using
sophisticated RDF partitioning algorithms" (paper §2).

Loads the same workload under hash / grid / Hilbert partitioning across
partition counts and measures: balance (max/mean), pruning on selective
spatio-temporal queries, and the measured scan time of the surviving
partitions, scanned one after another in this process; plus a query-mix
table (selective range, broad range, trajectory retrieval, kNN).

Expected shape: hash balances best but never prunes, so it scans every
partition; grid prunes best but skews under concentrated traffic, so its
few scanned partitions are the heavy ones; Hilbert (sampled) holds both
ends. Spatial strategies win on selective ST queries; everything
converges on broad scans.
"""

import time

import pytest

from benchmarks.conftest import emit_table
from repro.geo.bbox import BBox
from repro.geo.grid import GeoGrid
from repro.query.executor import QueryExecutor
from repro.rdf.transform import RdfTransformer
from repro.store.parallel import ParallelRDFStore
from repro.store.partition import (
    GridPartitioner,
    HashPartitioner,
    HilbertPartitioner,
    QuadTreePartitioner,
)


def _build_store(sample, grid, partitioner):
    transformer = RdfTransformer(st_grid=grid)
    store = ParallelRDFStore(partitioner)
    for entity in sample.registry:
        store.add_document(transformer.entity_to_triples(entity))
    for report in sample.reports:
        store.add_document(transformer.report_to_triples(report))
    return store


def _partitioners(grid, n, sample_keys):
    return [
        HashPartitioner(n),
        GridPartitioner(grid, n),
        HilbertPartitioner(grid, n, sample_keys=sample_keys),
        QuadTreePartitioner(grid, n, sample_keys=sample_keys),
    ]


def test_e4_partitioning_strategies(benchmark, maritime_fleet):
    sample = maritime_fleet
    grid = GeoGrid(bbox=sample.world.bbox, nx=32, ny=32)
    transformer = RdfTransformer(st_grid=grid)
    sample_keys = [
        transformer.st_key(r.lon, r.lat, r.t) for r in sample.reports[::10]
    ]
    selective = BBox(23.4, 37.6, 24.2, 38.1)  # around the Piraeus approaches

    rows = []
    for n in (2, 4, 8, 16):
        for partitioner in _partitioners(grid, n, sample_keys):
            store = _build_store(sample, grid, partitioner)
            executor = QueryExecutor(store)
            stats = store.stats()
            nodes, report = executor.range_query(selective, 0.0, 3600.0)
            rows.append([
                partitioner.name,
                n,
                stats.imbalance,
                report.partitions_scanned,
                report.pruning_ratio,
                report.scan_s * 1000.0,
                len(nodes),
            ])
    emit_table(
        "e4_partitioning",
        "E4a: partitioning strategies × partition count "
        "(selective ST range query)",
        ["strategy", "parts", "imbalance", "scanned", "pruning",
         "scan_ms", "results"],
        rows,
    )

    # Results must be identical across strategies (same workload).
    counts = {row[6] for row in rows}
    assert len(counts) == 1

    # -- query mix on the Hilbert/8 store -----------------------------------
    store = _build_store(sample, grid, HilbertPartitioner(grid, 8, sample_keys=sample_keys))
    executor = QueryExecutor(store)
    broad = sample.world.bbox
    entity_id = next(iter(sample.truth))

    mix_rows = []

    def timed(label, fn):
        started = time.perf_counter()
        out = fn()
        elapsed = (time.perf_counter() - started) * 1000.0
        mix_rows.append([label, elapsed, out])

    timed("range_selective", lambda: len(executor.range_query(selective, 0, 3600)[0]))
    timed("range_broad", lambda: len(executor.range_query(broad)[0]))
    timed("trajectory", lambda: len(executor.entity_trajectory(entity_id)))
    timed("knn_10", lambda: len(executor.knn_nodes(23.62, 37.94, k=10)))
    emit_table(
        "e4_query_mix",
        "E4b: query mix on the Hilbert/8 store",
        ["query", "wall_ms", "results"],
        mix_rows,
    )

    benchmark(lambda: executor.range_query(selective, 0.0, 3600.0))
