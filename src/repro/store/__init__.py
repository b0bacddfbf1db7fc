"""Parallel RDF store with spatio-temporal partitioning.

Implements the paper's "spatiotemporal query-answering component ...
parallel query processing techniques ... over interlinked data stored in
parallel RDF stores, using sophisticated RDF partitioning algorithms":

- :mod:`repro.store.dictionary` — term dictionary (term ↔ integer id).
- :mod:`repro.store.triple_store` — one partition: SPO/POS/OSP-indexed
  in-memory triple store over encoded ids.
- :mod:`repro.store.partition` — partitioning strategies: hash (baseline),
  uniform spatial grid, Hilbert-curve ranges (locality + balance).
- :mod:`repro.store.parallel` — the multi-partition store with
  subject-document routing and partition pruning by spatio-temporal key;
  a query scans the surviving partitions serially, in process.
"""

from repro.store.dictionary import TermDictionary
from repro.store.triple_store import TripleStore
from repro.store.partition import (
    Partitioner,
    HashPartitioner,
    GridPartitioner,
    HilbertPartitioner,
    QuadTreePartitioner,
)
from repro.store.parallel import ParallelRDFStore, PartitionStats
from repro.store.persistence import export_store, import_store

__all__ = [
    "TermDictionary",
    "TripleStore",
    "Partitioner",
    "HashPartitioner",
    "GridPartitioner",
    "HilbertPartitioner",
    "QuadTreePartitioner",
    "ParallelRDFStore",
    "PartitionStats",
    "export_store",
    "import_store",
]
