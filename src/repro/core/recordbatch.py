"""Columnar micro-batches: the structure-of-arrays hot-path representation.

A :class:`RecordBatch` carries one micro-batch of position reports twice:
as the original :class:`~repro.model.reports.PositionReport` tuple (the
record view — RDF transformation, event construction and every scalar
fallback still speak records) and as per-field numpy arrays (the columnar
view — cleaning, synopses, detector predicates and zone lookup consume
whole columns at a time). Optional fields (``speed``, ``heading``,
``alt``) are encoded as NaN, which makes the common None-guards vector
comparisons for free (any comparison against NaN is False, exactly like
the scalar ``is None`` skip paths).

Entity ids are dictionary-encoded: ``entity_codes[i]`` indexes
``vocabulary`` in first-seen order. A stable argsort of the codes gives a
sorted-by-entity layout whose per-entity *segments* are located with
``np.searchsorted`` — each segment lists the batch positions of one
entity's reports in stream order, which is what every per-entity
sequential kernel iterates over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.model.reports import PositionReport

__all__ = ["RecordBatch", "recordbatches"]


_NAN = math.nan


@dataclass(frozen=True)
class RecordBatch:
    """A frozen structure-of-arrays view of one micro-batch.

    Attributes:
        reports: The original reports, in stream (event-time) order.
        t / lon / lat / speed / heading / alt: float64 columns aligned
            with ``reports``; optional fields hold NaN where the report
            field is ``None``.
        entity_codes: int32 dictionary codes aligned with ``reports``.
        vocabulary: Entity ids by code, in first-seen order.
        order: Batch positions stable-sorted by entity code — segment
            ``c`` occupies ``order[segment_bounds[c]:segment_bounds[c+1]]``
            and lists that entity's positions in ascending stream order.
        segment_bounds: ``len(vocabulary) + 1`` segment boundaries into
            ``order``.
        offset: Absolute source offset of ``reports[0]`` (checkpointable
            batch offsets: ``offset + len(batch)`` is the next batch's
            offset and the exact record offset a checkpoint records).
    """

    reports: tuple[PositionReport, ...]
    t: np.ndarray
    lon: np.ndarray
    lat: np.ndarray
    speed: np.ndarray
    heading: np.ndarray
    alt: np.ndarray
    entity_codes: np.ndarray
    vocabulary: tuple[str, ...]
    order: np.ndarray = field(repr=False)
    segment_bounds: np.ndarray = field(repr=False)
    offset: int = 0

    @classmethod
    def from_reports(
        cls, reports: Iterable[PositionReport], offset: int = 0
    ) -> "RecordBatch":
        """Build the columnar view of a report sequence."""
        rs = tuple(reports)
        n = len(rs)
        vocab: dict[str, int] = {}
        sd = vocab.setdefault
        codes = np.fromiter(
            (sd(r.entity_id, len(vocab)) for r in rs), dtype=np.int32, count=n
        )
        order = np.argsort(codes, kind="stable").astype(np.int64, copy=False)
        bounds = np.searchsorted(codes[order], np.arange(len(vocab) + 1))
        # t/lon/lat are required report fields; only the optional columns
        # pay the None→NaN test. fromiter fills the columns without the
        # intermediate list an array(listcomp) build would allocate.
        return cls(
            reports=rs,
            t=np.fromiter((r.t for r in rs), np.float64, count=n),
            lon=np.fromiter((r.lon for r in rs), np.float64, count=n),
            lat=np.fromiter((r.lat for r in rs), np.float64, count=n),
            speed=np.fromiter(
                (_NAN if (v := r.speed) is None else v for r in rs),
                np.float64,
                count=n,
            ),
            heading=np.fromiter(
                (_NAN if (v := r.heading) is None else v for r in rs),
                np.float64,
                count=n,
            ),
            alt=np.fromiter(
                (_NAN if (v := r.alt) is None else v for r in rs),
                np.float64,
                count=n,
            ),
            entity_codes=codes,
            vocabulary=tuple(vocab),
            order=order,
            segment_bounds=bounds,
            offset=offset,
        )

    @classmethod
    def empty(cls, offset: int = 0) -> "RecordBatch":
        """A zero-record batch (useful as a stream sentinel)."""
        return cls.from_reports((), offset=offset)

    def __len__(self) -> int:
        return len(self.reports)

    @property
    def n_entities(self) -> int:
        """Number of distinct entities in the batch."""
        return len(self.vocabulary)

    def positions_of(self, code: int) -> np.ndarray:
        """Batch positions of entity ``code``, ascending (= stream order)."""
        b = self.segment_bounds
        return self.order[b[code] : b[code + 1]]

    def segments(self) -> Iterator[tuple[int, str, np.ndarray]]:
        """Yield ``(code, entity_id, positions)`` per entity, by code."""
        b = self.segment_bounds
        for code, entity_id in enumerate(self.vocabulary):
            yield (code, entity_id, self.order[b[code] : b[code + 1]])

    def segments_where(self, mask: np.ndarray) -> Iterator[tuple[int, str, np.ndarray]]:
        """:meth:`segments` cut to the positions ``mask`` keeps; empty ones skipped."""
        kept = self.order[mask[self.order]]
        b = np.searchsorted(self.entity_codes[kept], np.arange(len(self.vocabulary) + 1)).tolist()
        for code, entity_id in enumerate(self.vocabulary):
            if b[code] < b[code + 1]:
                yield code, entity_id, kept[b[code] : b[code + 1]]

    def asof_join(self, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each entity's latest row as of each row in ``active`` (ascending).

        Returns ``(own, latest)``, both ``(n_entities, active.size)``:
        ``own[c, i]`` holds when row ``i`` is entity ``c``'s, and
        ``latest[c, i]`` is the index into ``active`` of entity ``c``'s
        latest row at or before row ``i`` (-1 when none). A row's own
        entity resolves to the row itself, so wherever ``own`` is masked
        out, ``latest`` points at a *strictly earlier* row.
        """
        codes = self.entity_codes[active]
        own = codes[None, :] == np.arange(len(self.vocabulary))[:, None]
        rows = np.arange(int(active.size))
        return own, np.maximum.accumulate(np.where(own, rows[None, :], -1), axis=1)

    def slice(self, start: int, stop: int | None = None) -> "RecordBatch":
        """A new batch over ``reports[start:stop]`` with a shifted offset."""
        rs = self.reports[start:stop]
        return RecordBatch.from_reports(rs, offset=self.offset + start)

    def to_reports(self) -> tuple[PositionReport, ...]:
        """Reconstruct reports purely from the columns.

        Only the columnar fields survive (``source``/``domain``/``extras``
        come from the stored record view in :attr:`reports`; this
        reconstruction exists for round-trip testing and for sources that
        synthesize batches column-first). NaN maps back to ``None``.
        """

        def opt(v: float) -> float | None:
            return None if math.isnan(v) else v

        return tuple(
            PositionReport(
                entity_id=self.vocabulary[self.entity_codes[i]],
                t=float(self.t[i]),
                lon=float(self.lon[i]),
                lat=float(self.lat[i]),
                alt=opt(float(self.alt[i])),
                speed=opt(float(self.speed[i])),
                heading=opt(float(self.heading[i])),
                vertical_rate=r.vertical_rate,
                source=r.source,
                domain=r.domain,
                extras=r.extras,
            )
            for i, r in enumerate(self.reports)
        )


def recordbatches(
    batches: Iterable[Sequence[PositionReport]], start_offset: int = 0
) -> Iterator[RecordBatch]:
    """Wrap pre-sliced report batches as :class:`RecordBatch` instances.

    Offsets run consecutively from ``start_offset``, so a checkpointing
    consumer sees the exact absolute record offset of every batch. Empty
    batches are dropped (they carry no records and would duplicate an
    offset).
    """
    offset = start_offset
    for batch in batches:
        rs = tuple(batch)
        if not rs:
            continue
        yield RecordBatch.from_reports(rs, offset=offset)
        offset += len(rs)
