"""The multi-partition RDF store with subject-document routing.

Placement contract: *all triples of a subject land in one partition*
(chosen by the subject's spatio-temporal key when it has one, or by
subject hash otherwise). Star-shaped query fragments therefore evaluate
partition-locally, and spatially selective queries touch only the
partitions whose key ranges intersect the query region.

Partitions are plain in-process structures that a query scans one after
another, and the executor reports that serial scan as measured wall time
(``ExecutionReport.scan_s``). What a partitioning strategy buys here is
balance and pruning — fewer and lighter partitions to scan — measured on
one core. Execution in real worker processes is :mod:`repro.runtime`'s
job, and :mod:`repro.serving` fans reads out across its shards.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.geo.bbox import BBox
from repro.obs.clock import monotonic
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.rdf import vocabulary as V
from repro.rdf.terms import Literal, Term, Triple
from repro.store.dictionary import TermDictionary
from repro.store.partition import Partitioner
from repro.store.triple_store import TripleStore


@dataclass(frozen=True, slots=True)
class PartitionStats:
    """Balance statistics over the partitions.

    Attributes:
        triples_per_partition: Triple count per partition.
        subjects_per_partition: Distinct routed subjects per partition.
        imbalance: max/mean triple count (1.0 = perfectly balanced).
    """

    triples_per_partition: tuple[int, ...]
    subjects_per_partition: tuple[int, ...]
    imbalance: float


class ParallelRDFStore:
    """A dictionary-encoded triple store sharded over N partitions.

    Args:
        partitioner: Subject/key placement policy.
        metrics: Observability registry; when given (and enabled), inserts
            are timed into the ``store.add_document`` histogram and
            ``store.documents`` / ``store.triples`` /
            ``store.match_calls`` / ``store.partition_scans`` counters
            track load and pruning effectiveness.
    """

    def __init__(
        self, partitioner: Partitioner, metrics: MetricsRegistry | None = None
    ) -> None:
        self.partitioner = partitioner
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._obs = self.metrics.enabled
        self._add_latency = self.metrics.histogram("store.add_document")
        self._docs_counter = self.metrics.counter("store.documents")
        self._triples_counter = self.metrics.counter("store.triples")
        self._match_counter = self.metrics.counter("store.match_calls")
        self._scan_counter = self.metrics.counter("store.partition_scans")
        self.dictionary = TermDictionary()
        self.partitions = [TripleStore() for __ in range(partitioner.n_partitions)]
        self._subject_partition: dict[int, int] = {}
        # Spatial pruning is sound only while every *position* document
        # (one carrying geo coordinates) was routed by its st-key. A single
        # keyless position document could land anywhere, so pruning must
        # be disabled from then on.
        self._spatial_pruning_sound = True

    @property
    def n_partitions(self) -> int:
        """Number of partitions."""
        return len(self.partitions)

    def __len__(self) -> int:
        return sum(len(p) for p in self.partitions)

    # -- loading -------------------------------------------------------------

    def _place(self, doc: list[Triple], subject_id: int) -> int:
        """Route one document's subject to a partition (placement-stable)."""
        partition_idx = self._subject_partition.get(subject_id)
        if partition_idx is None:
            st_key = self._extract_st_key(doc) if self.partitioner.uses_spatial_key else None
            if st_key is not None:
                partition_idx = self.partitioner.partition_for_key(st_key)
            else:
                partition_idx = self.partitioner.partition_for_subject(subject_id)
                if self.partitioner.uses_spatial_key and self._is_position_doc(doc):
                    self._spatial_pruning_sound = False
            self._subject_partition[subject_id] = partition_idx
        return partition_idx

    def _encode_document(self, triples: Iterable[Triple]) -> tuple[int, list[tuple[int, int, int]]]:
        """Validate + dictionary-encode one document into id triples."""
        doc = list(triples)
        if not doc:
            raise ValueError("empty document")
        subject = doc[0].s
        if any(t.s != subject for t in doc):
            raise ValueError("a document must contain a single subject")
        subject_id = self.dictionary.encode(subject)
        partition_idx = self._place(doc, subject_id)
        # One bulk encode over the interleaved (p, o, p, o, ...) stream:
        # identical first-sight id assignment order to per-term encode().
        flat = self.dictionary.encode_many(
            term for triple in doc for term in (triple.p, triple.o)
        )
        pairs = iter(flat)
        ids = [(subject_id, p, o) for p, o in zip(pairs, pairs)]
        return partition_idx, ids

    def add_document(self, triples: Iterable[Triple]) -> int:
        """Insert all triples of one subject document; returns the partition.

        The document's subject is taken from its first triple; mixing
        subjects in one document is an error. Repeated documents for the
        same subject stay on the subject's original partition (placement
        stability), regardless of key drift.
        """
        obs = self._obs
        insert_started = monotonic() if obs else 0.0
        partition_idx, ids = self._encode_document(triples)
        self.partitions[partition_idx].add_triples(ids)
        if obs:
            self._docs_counter.inc()
            self._triples_counter.inc(len(ids))
            self._add_latency.record(monotonic() - insert_started)
        return partition_idx

    def add_documents(self, documents: Iterable[Iterable[Triple]]) -> int:
        """Bulk-insert many subject documents; returns the document count.

        The micro-batch ingest path: one dictionary-encode pass over the
        whole batch, id triples grouped per partition and landed with one
        :meth:`TripleStore.add_triples` call each — instead of per-document
        method dispatch, timing and counter traffic. Placement decisions
        are made in document order, so the final store state is identical
        to calling :meth:`add_document` in a loop; the
        ``store.add_document`` histogram receives one amortized per-
        document sample per batch rather than one sample per document.
        """
        obs = self._obs
        insert_started = monotonic() if obs else 0.0
        per_partition: dict[int, list[tuple[int, int, int]]] = {}
        n_docs = 0
        n_triples = 0
        for document in documents:
            partition_idx, ids = self._encode_document(document)
            per_partition.setdefault(partition_idx, []).extend(ids)
            n_docs += 1
            n_triples += len(ids)
        for partition_idx, ids in per_partition.items():
            self.partitions[partition_idx].add_triples(ids)
        if obs and n_docs:
            self._docs_counter.inc(n_docs)
            self._triples_counter.inc(n_triples)
            self._add_latency.record(
                (monotonic() - insert_started) / n_docs
            )
        return n_docs

    def add_id_documents(
        self,
        documents: Iterable[tuple[int, list[tuple[int, int, int]], int | None, bool]],
    ) -> int:
        """Bulk-insert pre-encoded subject documents (the compiled path).

        Each document is ``(subject_id, id_triples, st_key, is_position)``
        as assembled by :class:`~repro.rdf.emitter.CompiledReportEmitter`
        against this store's :attr:`dictionary`. Placement mirrors the
        object path's :meth:`_place` exactly — routed by the supplied
        spatio-temporal key when the partitioner uses one, by subject
        hash otherwise, placement-stable per subject — without decoding a
        single term. A keyless position document under a spatial
        partitioner still voids :meth:`partitions_for_bbox` pruning, and
        the ``store.documents`` / ``store.triples`` counters and the one
        amortized ``store.add_document`` sample behave exactly like
        :meth:`add_documents`.
        """
        obs = self._obs
        insert_started = monotonic() if obs else 0.0
        per_partition: dict[int, list[tuple[int, int, int]]] = {}
        n_docs = 0
        n_triples = 0
        placed = self._subject_partition
        partitioner = self.partitioner
        uses_key = partitioner.uses_spatial_key
        for subject_id, ids, st_key, is_position in documents:
            if not ids:
                raise ValueError("empty document")
            partition_idx = placed.get(subject_id)
            if partition_idx is None:
                if uses_key and st_key is not None:
                    partition_idx = partitioner.partition_for_key(st_key)
                else:
                    partition_idx = partitioner.partition_for_subject(subject_id)
                    if uses_key and is_position:
                        self._spatial_pruning_sound = False
                placed[subject_id] = partition_idx
            bucket = per_partition.get(partition_idx)
            if bucket is None:
                per_partition[partition_idx] = bucket = []
            bucket.extend(ids)
            n_docs += 1
            n_triples += len(ids)
        for partition_idx, ids in per_partition.items():
            self.partitions[partition_idx].add_triples(ids)
        if obs and n_docs:
            self._docs_counter.inc(n_docs)
            self._triples_counter.inc(n_triples)
            self._add_latency.record((monotonic() - insert_started) / n_docs)
        return n_docs

    @staticmethod
    def _extract_st_key(doc: list[Triple]) -> int | None:
        for triple in doc:
            if triple.p == V.PROP_ST_KEY and isinstance(triple.o, Literal):
                return int(triple.o.value)
        return None

    @staticmethod
    def _is_position_doc(doc: list[Triple]) -> bool:
        """Whether the document carries geo coordinates (prunable data)."""
        return any(triple.p == V.PROP_LON for triple in doc)

    # -- matching --------------------------------------------------------------

    def match_ids(
        self,
        s: int | None = None,
        p: int | None = None,
        o: int | None = None,
        partitions: Iterable[int] | None = None,
    ) -> Iterator[tuple[int, int, int]]:
        """Iterate id triples matching an id pattern; ``None`` is a wildcard.

        The store's one scan path: partitions in the given order (all,
        ascending, by default), each in :meth:`TripleStore.match` order.
        A bound subject scans only the partition it was placed on — the
        placement contract keeps every triple of a subject there — and
        none when the subject was never placed or its partition is not
        among ``partitions``. The ``store.match_calls`` /
        ``store.partition_scans`` counters move when this is called.

        Args:
            partitions: Restrict the scan to these partitions (pruning);
                default scans all.
        """
        if s is not None:
            placed = self._subject_partition.get(s)
            if placed is None or (partitions is not None and placed not in partitions):
                targets: Sequence[int] = ()
            else:
                targets = (placed,)
        elif partitions is None:
            targets = range(self.n_partitions)
        else:
            targets = tuple(partitions)
        if self._obs:
            self._match_counter.inc()
            self._scan_counter.inc(len(targets))
        if len(targets) == 1:
            return self.partitions[targets[0]].match(s, p, o)
        return chain.from_iterable(
            self.partitions[idx].match(s, p, o) for idx in targets
        )

    def match(
        self,
        s: Term | None = None,
        p: Term | None = None,
        o: Term | None = None,
        partitions: Iterable[int] | None = None,
    ) -> Iterator[Triple]:
        """Iterate decoded triples matching a term pattern.

        Encodes the pattern, scans with :meth:`match_ids` and decodes each
        hit; a term the dictionary has never seen matches nothing and
        scans nothing.

        Args:
            partitions: Restrict the scan to these partitions (pruning);
                default scans all.
        """
        ids: list[int | None] = []
        for term in (s, p, o):
            if term is None:
                ids.append(None)
            else:
                term_id = self.dictionary.try_encode(term)
                if term_id is None:
                    return
                ids.append(term_id)
        decode = self.dictionary.decode
        for ss, pp, oo in self.match_ids(*ids, partitions=partitions):
            yield Triple(decode(ss), decode(pp), decode(oo))

    def count(self, s: Term | None = None, p: Term | None = None, o: Term | None = None) -> int:
        """Count matches of a term pattern across all partitions."""
        ids: list[int | None] = []
        for term in (s, p, o):
            if term is None:
                ids.append(None)
            else:
                term_id = self.dictionary.try_encode(term)
                if term_id is None:
                    return 0
                ids.append(term_id)
        return sum(p_.count_matches(*ids) for p_ in self.partitions)

    # -- deletion & retention ---------------------------------------------------

    def remove_subject(self, subject: Term) -> int:
        """Delete every triple of one subject; returns triples removed.

        The subject's placement record is dropped too, so a re-inserted
        document is routed afresh.
        """
        subject_id = self.dictionary.try_encode(subject)
        if subject_id is None:
            return 0
        partition_idx = self._subject_partition.get(subject_id)
        candidates = (
            [partition_idx] if partition_idx is not None else range(self.n_partitions)
        )
        removed = 0
        for idx in candidates:
            doomed = list(self.partitions[idx].match(s=subject_id))
            for s, p, o in doomed:
                self.partitions[idx].remove(s, p, o)
            removed += len(doomed)
        self._subject_partition.pop(subject_id, None)
        return removed

    def expire_before(self, t: float) -> tuple[int, int]:
        """Data retention: delete position nodes with timestamp < ``t``.

        Only subjects carrying a ``time:inSeconds`` literal are eligible —
        entity metadata, zones and interval-timestamped events survive.

        Returns:
            ``(subjects removed, triples removed)``.
        """
        timestamp_id = self.dictionary.try_encode(V.PROP_TIMESTAMP)
        if timestamp_id is None:
            return (0, 0)
        doomed: list[Term] = []
        for partition in self.partitions:
            for s, __p, o in partition.match(p=timestamp_id):
                term = self.dictionary.decode(o)
                if isinstance(term, Literal):
                    try:
                        if float(term.value) < t:
                            doomed.append(self.dictionary.decode(s))
                    except (TypeError, ValueError):
                        continue
        triples_removed = 0
        for subject in doomed:
            triples_removed += self.remove_subject(subject)
        return (len(doomed), triples_removed)

    # -- pruning & statistics --------------------------------------------------

    def partition_of(self, subject_id: int) -> int | None:
        """The partition holding every triple of a subject (None: it has none)."""
        return self._subject_partition.get(subject_id)

    def partitions_for_bbox(self, bbox: BBox) -> set[int]:
        """Partitions that can hold position documents inside the box.

        Falls back to *all* partitions when any position document was
        routed without a spatio-temporal key (pruning would be unsound).
        """
        if not self._spatial_pruning_sound:
            return set(range(self.n_partitions))
        return self.partitioner.partitions_for_bbox(bbox)

    def stats(self) -> PartitionStats:
        """Balance statistics for experiment E4."""
        triples = tuple(len(p) for p in self.partitions)
        subjects: list[int] = [0] * self.n_partitions
        # lint: allow[D5] integer bucket counting is commutative — every iteration order yields the same subjects_per_partition tuple
        for partition_idx in self._subject_partition.values():
            subjects[partition_idx] += 1
        mean = float(np.mean(triples)) if triples else 0.0
        imbalance = (max(triples) / mean) if mean > 0 else 1.0
        return PartitionStats(
            triples_per_partition=triples,
            subjects_per_partition=tuple(subjects),
            imbalance=imbalance,
        )
