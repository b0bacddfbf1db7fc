"""Event model: outputs of the complex event recognition layer.

Simple events are per-entity instantaneous observations (zone entry,
speed anomaly, gap start); complex events are pattern matches over one or
more entities' simple-event histories (collision risk, rendezvous,
capacity overload). Both carry enough provenance to be transformed into the
RDF common representation and rendered by visual analytics.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, overload


class EventSeverity(enum.IntEnum):
    """Operational severity of a detected event."""

    INFO = 0
    ADVISORY = 1
    WARNING = 2
    ALARM = 3


@dataclass(frozen=True, slots=True)
class SimpleEvent:
    """An instantaneous, per-entity event derived from the stream.

    Attributes:
        event_type: Machine-readable type, e.g. ``"zone_entry"``.
        entity_id: The entity the event concerns.
        t: Event time in seconds.
        lon: Longitude of the entity at event time.
        lat: Latitude at event time.
        severity: Operational severity.
        attributes: Type-specific payload (zone name, measured speed, ...).
    """

    event_type: str
    entity_id: str
    t: float
    lon: float
    lat: float
    severity: EventSeverity = EventSeverity.INFO
    attributes: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.event_type:
            raise ValueError("event_type must be non-empty")
        if not self.entity_id:
            raise ValueError("entity_id must be non-empty")


#: ``(event_type, entity_id, t)`` — what the deterministic payloads and
#: the serving event log read of a simple event.
EventKey = tuple[str, str, float]


class SimpleEventLog(Sequence[SimpleEvent]):
    """The append-only simple-event stream of a run, stored in chunks.

    A chunk is either a plain list of events (:meth:`extend`) or a *run*
    (:meth:`append_run`): a sequence that builds its rows only when they
    are read and answers :meth:`keys` without building them (e.g.
    :class:`repro.cep.simple.ProximityRun`). Reading rows — iteration,
    ``log[i]``, ``log[a:b]`` (a list) — costs the rows read plus a bisect
    over chunk starts, never a pass over the whole log. Equality is
    element-wise against another log or a list.
    """

    __slots__ = ("_chunks", "_starts", "_len", "_tail")

    def __init__(self) -> None:
        self._chunks: list[Sequence[SimpleEvent]] = []
        #: Index of each chunk's first event.
        self._starts: list[int] = []
        self._len = 0
        #: The last chunk when it is a list (extended in place), else None.
        self._tail: list[SimpleEvent] | None = None

    def extend(self, events: Sequence[SimpleEvent]) -> None:
        """Append materialised events (one call per record on the scalar path)."""
        if events:
            tail = self._tail
            if tail is None:
                tail = self._tail = []
                self._starts.append(self._len)
                self._chunks.append(tail)
            tail.extend(events)
            self._len += len(events)

    def append_run(self, run: Sequence[SimpleEvent]) -> None:
        """Append a lazily-built run of events as one chunk."""
        n = len(run)
        if n:
            self._starts.append(self._len)
            self._chunks.append(run)
            self._len += n
            self._tail = None

    def keys(self, start: int = 0) -> Iterator[EventKey]:
        """``(event_type, entity_id, t)`` of every event from ``start`` on,
        without building a run's rows."""
        start = max(start, 0)
        if start >= self._len:
            return
        c = bisect_right(self._starts, start) - 1
        offset = start - self._starts[c]
        for chunk in self._chunks[c:]:
            if isinstance(chunk, list):
                for e in chunk[offset:]:
                    yield (e.event_type, e.entity_id, e.t)
            else:
                yield from chunk.keys(offset)
            offset = 0

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[SimpleEvent]:
        for chunk in self._chunks:
            yield from chunk

    @overload
    def __getitem__(self, index: int) -> SimpleEvent: ...

    @overload
    def __getitem__(self, index: slice) -> list[SimpleEvent]: ...

    def __getitem__(self, index: int | slice) -> SimpleEvent | list[SimpleEvent]:
        if isinstance(index, slice):
            start, stop, step = index.indices(self._len)
            if step != 1:
                return [self[i] for i in range(start, stop, step)]
            out: list[SimpleEvent] = []
            if start >= stop:
                return out
            starts = self._starts
            c = bisect_right(starts, start) - 1
            while c < len(starts) and starts[c] < stop:
                out.extend(self._chunks[c][max(start - starts[c], 0) : stop - starts[c]])
                c += 1
            return out
        i = index + self._len if index < 0 else index
        if not 0 <= i < self._len:
            raise IndexError("simple event index out of range")
        c = bisect_right(self._starts, i) - 1
        return self._chunks[c][i - self._starts[c]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (SimpleEventLog, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"SimpleEventLog(<{self._len} events in {len(self._chunks)} chunks>)"


@dataclass(frozen=True, slots=True)
class ComplexEvent:
    """A recognized pattern over one or more entities.

    Attributes:
        event_type: Pattern name, e.g. ``"collision_risk"``.
        entity_ids: Entities participating in the match, in pattern order.
        t_start: Time of the first contributing observation.
        t_end: Time of the match completion (detection time basis).
        severity: Operational severity.
        attributes: Pattern-specific payload (cpa distance, zone, counts...).
        contributing: The simple events that produced the match, in order.
    """

    event_type: str
    entity_ids: tuple[str, ...]
    t_start: float
    t_end: float
    severity: EventSeverity = EventSeverity.WARNING
    attributes: Mapping[str, Any] = field(default_factory=dict)
    contributing: tuple[SimpleEvent, ...] = ()

    def __post_init__(self) -> None:
        if not self.event_type:
            raise ValueError("event_type must be non-empty")
        if not self.entity_ids:
            raise ValueError("complex event needs at least one entity")
        if self.t_end < self.t_start:
            raise ValueError("t_end must be >= t_start")

    @property
    def duration(self) -> float:
        """Span of the match in seconds."""
        return self.t_end - self.t_start
