"""Term dictionary: bidirectional mapping between RDF terms and integers.

Triple stores never index raw terms — they encode every term once and
work on dense integer ids. The dictionary is shared across partitions so
ids are globally consistent (a real deployment would shard it; a single
dict preserves the semantics).
"""

from __future__ import annotations

import pickle
from typing import Iterable

from repro.rdf.terms import Term


class TermDictionary:
    """Assigns stable integer ids to RDF terms.

    Ids are dense, starting at 0, in first-seen order. Terms must be
    hashable (all :mod:`repro.rdf.terms` types are).

    The dictionary only ever grows, so it pickles as a list of *sealed
    chunks*: each is the pickled run of terms assigned since the previous
    pickling, encoded by the first pickling that saw them and reused as
    bytes by every later one. A checkpoint therefore pays for the terms
    added since the last checkpoint, not for the whole dictionary again,
    and each pickle still holds every chunk, so it restores on its own.
    """

    def __init__(self) -> None:
        self._by_term: dict[Term, int] = {}
        self._by_id: list[Term] = []
        # Pickled ``_by_id[a:b]`` runs covering ``_by_id[:_sealed_upto]``;
        # appended lazily by __getstate__, so a run that is never pickled
        # allocates nothing here.
        self._chunks: list[bytes] = []
        self._sealed_upto = 0

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, term: Term) -> bool:
        return term in self._by_term

    def __getstate__(self) -> list[bytes]:
        if self._sealed_upto < len(self._by_id):
            self._chunks.append(
                pickle.dumps(
                    self._by_id[self._sealed_upto :], protocol=pickle.HIGHEST_PROTOCOL
                )
            )
            self._sealed_upto = len(self._by_id)
        return self._chunks

    def __setstate__(self, chunks: list[bytes]) -> None:
        by_id: list[Term] = []
        for chunk in chunks:
            by_id.extend(pickle.loads(chunk))
        self._by_id = by_id
        # Ids were assigned in first-seen order and never removed, so
        # rebuilding in id order reproduces the original insertion order.
        self._by_term = {term: term_id for term_id, term in enumerate(by_id)}
        self._chunks = list(chunks)
        self._sealed_upto = len(by_id)

    def encode(self, term: Term) -> int:
        """Id of a term, assigning a new id on first sight."""
        existing = self._by_term.get(term)
        if existing is not None:
            return existing
        new_id = len(self._by_id)
        self._by_term[term] = new_id
        self._by_id.append(term)
        return new_id

    def encode_many(self, terms: Iterable[Term]) -> list[int]:
        """Bulk :meth:`encode`: one id list for a term sequence.

        First-sight id assignment happens in iteration order, exactly as
        if :meth:`encode` were called per term — the bulk form only drops
        the per-term method dispatch on the ingest hot path.
        """
        by_term = self._by_term
        by_id = self._by_id
        out: list[int] = []
        append = out.append
        for term in terms:
            existing = by_term.get(term)
            if existing is None:
                existing = len(by_id)
                by_term[term] = existing
                by_id.append(term)
            append(existing)
        return out

    def try_encode(self, term: Term) -> int | None:
        """Id of a term, or ``None`` if the term was never seen.

        Used on the query path: an unseen constant means zero matches, so
        queries must not pollute the dictionary.
        """
        return self._by_term.get(term)

    def decode(self, term_id: int) -> Term:
        """The term for an id; raises ``IndexError`` for unknown ids."""
        if term_id < 0:
            raise IndexError(f"invalid term id {term_id}")
        return self._by_id[term_id]
