"""Replay source: a recorded stream that can be re-read from any offset.

:class:`ReplayLog` is the recovery-side source: a materialized log that
can be re-read from any offset, so a resume-from-checkpoint replays
exactly the suffix the crashed run never finished (the skipped prefix is
what deduplicates replayed records).
"""

from __future__ import annotations

from typing import Generic, Iterable, Iterator, TypeVar

T = TypeVar("T")


class ReplayLog(Generic[T]):
    """A materialized item log supporting offset reads.

    Stands in for a durable, offset-addressable source (a Kafka topic, an
    archived AIS file): the same log instance feeds the original run and
    any number of recovery replays. Items are whatever the consumer
    ingests, e.g. position reports.
    """

    def __init__(self, items: Iterable[T]) -> None:
        self._items: list[T] = list(items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return self.read(0)

    def read(self, offset: int = 0) -> Iterator[T]:
        """Yield items starting at ``offset`` (0 = the full log)."""
        if offset < 0:
            raise ValueError("offset must be >= 0")
        yield from self._items[offset:]
