"""The read path's position column: a ``(node, lon, lat, t)`` row per node.

Spatio-temporal reads (``range_query``, ``knn_nodes``, the ``ST_WITHIN``
filter) ask one question of many candidate nodes: where and when is the
node, by its first lon/lat/time literal? :class:`PositionColumn` answers
it with float64 columns over the whole store and one vector mask per
read, instead of a ``match_ids`` + ``decode`` + ``float()`` per
candidate.

The column is *derived* state, owned by the executor and never pickled:

- **From the logs.** The column remembers how much of each partition's
  append-only insert/tombstone log it has consumed. Before every read it
  takes the unseen tail of each partition the read walks (all of them,
  for ``ST_WITHIN``), picks the entries on a lon/lat/time predicate, and
  re-reads those nodes' objects from the partition that holds them now.
  A row is therefore a function of the store's current triples, whatever
  mix of inserts, tombstones and re-placements led there, and no write
  path runs any code for it.
- **Exact where the index is unambiguous.** A node with one lon, one lat
  and at most one time object gets a row: the floats, and a time kind.
  A subject that is not an IRI, or a node without a numeric lon and
  lat, can never pass, so it gets no row (or its old row is blanked).
- **A counted fallback otherwise.** A node with two or more objects on
  one of the three predicates has no single "first" literal that stays
  put: the reader's first is set-iteration order, which later inserts
  can change. Such a node is listed in :attr:`PositionColumn.multi`, read
  exactly when a query meets it, and each read lands on
  ``query.fallback.position_read``.

A restored store is a new store object with a new executor, so its
column is rebuilt from the restored logs on the first read; the
checkpoint is not touched.
"""

from __future__ import annotations

from typing import Callable, Collection, Iterable

import numpy as np

from repro.geo.bbox import BBox
from repro.obs.metrics import MetricsRegistry
from repro.rdf import vocabulary as V
from repro.rdf.terms import IRI, Literal, Term
from repro.store.parallel import ParallelRDFStore

#: Time kinds of a row, ordered so that "the node has a time triple" is
#: ``kind >= NOT_A_NUMBER`` and "a numeric time" is ``kind == NUMBER``.
#: A time literal that parses to NaN fails every interval, the unbounded
#: one included, so it gets a kind below all of them.
NAN_TIME, NO_TIME, NOT_A_NUMBER, NUMBER = -1, 0, 1, 2

_NAN = float("nan")
#: The row of a node that no longer qualifies: no mask selects NaN.
_BLANK = (_NAN, _NAN, _NAN, NO_TIME)


def _number(term: Term) -> float | None:
    """A literal's value as a float; None for a non-literal or a non-number."""
    if not isinstance(term, Literal):
        return None
    try:
        return float(term.value)
    except (TypeError, ValueError):
        return None


def _only(objects: Collection[int], decode: Callable[[int], Term]) -> float | None:
    return _number(decode(next(iter(objects))))


class PositionColumn:
    """Position rows of every node in one store, caught up from its logs.

    Args:
        store: The store whose partitions' logs the rows follow.
        metrics: Registry that counts the exact per-node reads.

    Attributes:
        nodes: Node id per row (``[:size]`` is live).
        lon, lat, t: Floats per row; ``t`` is NaN unless the kind is
            :data:`NUMBER`.
        kind: Time kind per row (:data:`NO_TIME`, ...).
        size: Rows in use. A node that stops qualifying keeps its row,
            blanked so that no mask selects it.
        multi: Nodes with two or more lon, lat or time objects; a caller
            that meets one reads it exactly (:meth:`exact`).
    """

    def __init__(self, store: ParallelRDFStore, metrics: MetricsRegistry) -> None:
        self.store = store
        self.metrics = metrics
        self.nodes = np.zeros(0, dtype=np.int64)
        self.lon = np.zeros(0)
        self.lat = np.zeros(0)
        self.t = np.zeros(0)
        self.kind = np.zeros(0, dtype=np.int8)
        self.size = 0
        self.multi: set[int] = set()
        self._row: dict[int, int] = {}
        self._consumed = [0] * store.n_partitions

    def _predicates(self) -> tuple[int, int, int]:
        """Ids of lon, lat and time; -1 (matching nothing) while one is unseen.

        An id is fixed once assigned and no log entry can hold it before
        then, so rows derived under -1 stay exact when it appears.
        """
        try_encode = self.store.dictionary.try_encode
        lon, lat, t = (try_encode(p) for p in (V.PROP_LON, V.PROP_LAT, V.PROP_TIMESTAMP))
        return (
            -1 if lon is None else lon,
            -1 if lat is None else lat,
            -1 if t is None else t,
        )

    def sync(self, partitions: Iterable[int] | None = None) -> tuple[int, int, int]:
        """Consume the unseen log tails of ``partitions`` (default: all).

        Returns the predicate ids. The nodes the tails touch are re-read
        one by one; their rows are written into the arrays in one vector
        assignment. After a sync, the row of every node that the synced
        partitions hold is current: any change to its triples is in the
        log of the partition that holds it. Rows of nodes elsewhere may
        lag, so a read looks only at nodes of the partitions it synced.
        """
        predicates = self._predicates()
        touched: dict[int, None] = {}
        for idx in range(self.store.n_partitions) if partitions is None else partitions:
            tail = self.store.partitions[idx].log_tail(self._consumed[idx])
            if not tail:
                continue
            self._consumed[idx] += len(tail)
            entries = np.frombuffer(tail, dtype=np.int64).reshape(-1, 3)
            subjects = entries[np.isin(entries[:, 1], predicates), 0]
            touched.update(dict.fromkeys(np.where(subjects < 0, ~subjects, subjects).tolist()))
        # One flat list per column rather than a tuple per row: floats and
        # ints are not tracked by the cyclic GC, so a large first sync does
        # not set off collections over the whole store's index objects.
        rows: list[int] = []
        added: list[int] = []
        columns: tuple[list[float], list[float], list[float], list[int]] = ([], [], [], [])
        for node in touched:
            row = self._row.get(node)
            found = self._read(node, predicates)
            if found is None:
                if row is None:
                    continue
                found = _BLANK
            elif row is None:
                row = self._row[node] = self.size + len(added)
                added.append(node)
            rows.append(row)
            for column, value in zip(columns, found):
                column.append(value)
        if added:
            self._grow(added)
        if rows:
            for array, values in zip((self.lon, self.lat, self.t, self.kind), columns):
                array[rows] = values
        return predicates

    def _read(
        self, node: int, predicates: tuple[int, int, int]
    ) -> tuple[float, float, float, int] | None:
        """A node's row from the partition that holds it now; None: no row."""
        self.multi.discard(node)
        idx = self.store.partition_of(node)
        if idx is None:
            return None
        lon_ids, lat_ids, t_ids = (self.store.partitions[idx].objects(node, p) for p in predicates)
        decode = self.store.dictionary.decode
        if not lon_ids or not lat_ids or not isinstance(decode(node), IRI):
            return None
        if len(lon_ids) > 1 or len(lat_ids) > 1 or len(t_ids) > 1:
            self.multi.add(node)
            return None
        lon, lat = _only(lon_ids, decode), _only(lat_ids, decode)
        if lon is None or lat is None:
            return None
        if not t_ids:
            return (lon, lat, _NAN, NO_TIME)
        t = _only(t_ids, decode)
        if t is None:
            return (lon, lat, _NAN, NOT_A_NUMBER)
        if t != t:
            return (lon, lat, _NAN, NAN_TIME)
        return (lon, lat, t, NUMBER)

    def _grow(self, added: list[int]) -> None:
        size = self.size + len(added)
        if size > len(self.nodes):
            capacity = max(64, 2 * size)
            self.nodes = np.resize(self.nodes, capacity)
            self.lon = np.resize(self.lon, capacity)
            self.lat = np.resize(self.lat, capacity)
            self.t = np.resize(self.t, capacity)
            self.kind = np.resize(self.kind, capacity)
        self.nodes[self.size : size] = added
        self.size = size

    def select(self, bbox: BBox, t_from: float, t_to: float, min_kind: int) -> np.ndarray:
        """Rows inside the box and the interval, with a time kind ``>= min_kind``.

        The comparisons are ``BBox.contains`` and ``t_from <= t <= t_to``
        on the same float64 values, so a row is selected exactly when
        those would pass. A node without a numeric time passes only the
        unbounded interval, and only when ``min_kind`` lets its kind in.
        """
        n = self.size
        lon, lat = self.lon[:n], self.lat[:n]
        mask = (bbox.min_lon <= lon) & (lon <= bbox.max_lon)
        mask &= bbox.min_lat <= lat
        mask &= lat <= bbox.max_lat
        if t_from == float("-inf") and t_to == float("inf"):
            mask &= self.kind[:n] >= min_kind
        else:
            t = self.t[:n]
            mask &= t_from <= t
            mask &= t <= t_to
        return np.flatnonzero(mask)

    def exact(self, node: int) -> tuple[float | None, ...]:
        """``(lon, lat, t)`` from the node's first literal of each, read per node.

        Counted on an enabled registry. The counter is created on first
        use, so a registry whose reads never fall back snapshots exactly
        as it would without the column.
        """
        if self.metrics.enabled:
            self.metrics.counter("query.fallback.position_read").inc()
        match_ids, decode = self.store.match_ids, self.store.dictionary.decode
        values: list[float | None] = []
        for prop in self._predicates():
            value = None
            for __s, __p, o in match_ids(node, prop):
                term = decode(o)
                if isinstance(term, Literal):
                    value = _number(term)
                    break
            values.append(value)
        return tuple(values)
