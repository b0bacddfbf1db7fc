"""The eager triple store that the lazily indexed one is checked against.

``EagerTripleStore`` is :class:`repro.store.triple_store.TripleStore` as
it was before its indexes became a cache of its log: every write updates
SPO, POS and OSP at once, ``add_triples`` returns how many triples were
new, and unpickling replays the log through the same insert/remove code.
test_lazy_index.py requires both stores to give the same results in the
same iteration order after every step, and to log the same bytes.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Collection, Iterable, Iterator

_WILDCARD = None


class EagerTripleStore:
    """An id-encoded triple store whose indexes follow every write."""

    def __init__(self) -> None:
        # s -> p -> set[o]
        self._spo: dict[int, dict[int, set[int]]] = {}
        # p -> o -> set[s]
        self._pos: dict[int, dict[int, set[int]]] = {}
        # o -> s -> set[p]
        self._osp: dict[int, dict[int, set[int]]] = {}
        self._count = 0
        self._log = array("q")

    def __len__(self) -> int:
        return self._count

    def __getstate__(self) -> array[int]:
        return self._log

    def __setstate__(self, log: array[int]) -> None:
        EagerTripleStore.__init__(self)
        triples = iter(log)
        inserts: list[tuple[int, int, int]] = []
        for s, p, o in zip(triples, triples, triples):
            if s >= 0:
                inserts.append((s, p, o))
                continue
            self.add_triples(inserts)
            inserts = []
            self.remove(~s, p, o)
        self.add_triples(inserts)

    def add(self, s: int, p: int, o: int) -> bool:
        """Insert one triple; returns False when it already existed."""
        objects = self._spo.setdefault(s, {}).setdefault(p, set())
        if o in objects:
            return False
        objects.add(o)
        self._pos.setdefault(p, {}).setdefault(o, set()).add(s)
        self._osp.setdefault(o, {}).setdefault(s, set()).add(p)
        self._count += 1
        self._log.extend((s, p, o))
        return True

    def add_triples(self, triples: Iterable[tuple[int, int, int]]) -> int:
        """Bulk-insert id triples; returns how many were actually new.

        The hot-path batch insert: one method dispatch for the whole
        batch, index dict lookups hoisted out of the loop. Semantically
        identical to calling :meth:`add` per triple (same final indexes,
        same new-triple count) — the micro-batch store path relies on
        that equivalence.

        Every given triple is logged, duplicates included (replaying one
        is a no-op, as inserting it was); ``triples`` is materialised
        first so a generator is logged and inserted in full.
        """
        if not isinstance(triples, (list, tuple)):
            triples = list(triples)
        self._log.fromlist(list(chain.from_iterable(triples)))
        spo_get = self._spo.setdefault
        pos_get = self._pos.setdefault
        osp_get = self._osp.setdefault
        added = 0
        for s, p, o in triples:
            objects = spo_get(s, {}).setdefault(p, set())
            if o in objects:
                continue
            objects.add(o)
            pos_get(p, {}).setdefault(o, set()).add(s)
            osp_get(o, {}).setdefault(s, set()).add(p)
            added += 1
        self._count += added
        return added

    def remove(self, s: int, p: int, o: int) -> bool:
        """Delete one triple; returns False when it was absent."""
        objects = self._spo.get(s, {}).get(p)
        if objects is None or o not in objects:
            return False
        objects.discard(o)
        self._pos[p][o].discard(s)
        self._osp[o][s].discard(p)
        self._count -= 1
        self._log.extend((~s, p, o))
        return True

    def log_tail(self, start: int) -> array[int]:
        """A copy of the insert/tombstone log from ``start`` on.

        Entries come in ``(s, p, o)`` threes, a negative ``s`` marking a
        removal of ``(~s, p, o)``; ``start`` counts ints, so a reader that
        has consumed ``n`` ints asks for ``log_tail(n)``.
        """
        return self._log[start:]

    def objects(self, s: int, p: int) -> Collection[int]:
        """The objects of ``(s, p)`` in :meth:`match` order (read-only view)."""
        return self._spo.get(s, {}).get(p, ())

    def contains(self, s: int, p: int, o: int) -> bool:
        """Membership test for a fully bound triple."""
        return o in self._spo.get(s, {}).get(p, ())

    def match(
        self,
        s: int | None = _WILDCARD,
        p: int | None = _WILDCARD,
        o: int | None = _WILDCARD,
    ) -> Iterator[tuple[int, int, int]]:
        """Iterate triples matching a pattern; ``None`` is a wildcard.

        Picks the best index for the bound positions:

        ========= =========
        pattern   index
        ========= =========
        s p o     SPO probe
        s p ?     SPO
        s ? o     OSP
        s ? ?     SPO
        ? p o     POS
        ? p ?     POS
        ? ? o     OSP
        ? ? ?     SPO scan
        ========= =========
        """
        if s is not None:
            if p is not None:
                objects = self._spo.get(s, {}).get(p, ())
                if o is not None:
                    if o in objects:
                        yield (s, p, o)
                else:
                    for oo in objects:
                        yield (s, p, oo)
            elif o is not None:
                for pp in self._osp.get(o, {}).get(s, ()):
                    yield (s, pp, o)
            else:
                for pp, objects in self._spo.get(s, {}).items():
                    for oo in objects:
                        yield (s, pp, oo)
        elif p is not None:
            by_o = self._pos.get(p, {})
            if o is not None:
                for ss in by_o.get(o, ()):
                    yield (ss, p, o)
            else:
                for oo, subjects in by_o.items():
                    for ss in subjects:
                        yield (ss, p, oo)
        elif o is not None:
            for ss, predicates in self._osp.get(o, {}).items():
                for pp in predicates:
                    yield (ss, pp, o)
        else:
            for ss, by_p in self._spo.items():
                for pp, objects in by_p.items():
                    for oo in objects:
                        yield (ss, pp, oo)

    def count_matches(
        self,
        s: int | None = _WILDCARD,
        p: int | None = _WILDCARD,
        o: int | None = _WILDCARD,
    ) -> int:
        """Number of triples matching a pattern (cheap for common shapes)."""
        if s is None and p is None and o is None:
            return self._count
        if s is not None and p is not None and o is None:
            return len(self._spo.get(s, {}).get(p, ()))
        if s is None and p is not None and o is not None:
            return len(self._pos.get(p, {}).get(o, ()))
        if s is None and p is not None and o is None:
            return sum(len(subs) for subs in self._pos.get(p, {}).values())
        return sum(1 for __ in self.match(s, p, o))

    def subjects(self) -> Iterator[int]:
        """All distinct subject ids."""
        return iter(self._spo)
