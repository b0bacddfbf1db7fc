"""Cross-source fusion: one entity, many providers, one stream.

The paper's premise is "more and more frequent data from many different
sources ... for each of these entities". When the same vessel is seen by
terrestrial AIS, satellite AIS and radar, the in-situ layer must merge
the feeds into a single coherent per-entity stream:

1. merge the per-source streams by event time;
2. drop *cross-source near-duplicates* — a report that adds no
   information because another provider already reported (almost) the
   same position at (almost) the same time;
3. prefer the more precise provider when near-duplicates collide.

Source precision is ranked (radar < satellite AIS < terrestrial AIS by
default); a kept report suppresses near-duplicates from any source of
equal or lower rank within the suppression window.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.geo.geodesy import haversine_m
from repro.model.reports import PositionReport, ReportSource

#: Higher rank = more precise provider (wins ties).
DEFAULT_SOURCE_RANK: dict[ReportSource, int] = {
    ReportSource.RADAR: 0,
    ReportSource.AIS_SATELLITE: 1,
    ReportSource.ARCHIVE: 1,
    ReportSource.SYNTHETIC: 1,
    ReportSource.ADSB: 2,
    ReportSource.AIS_TERRESTRIAL: 2,
}


def merge_streams(
    streams: Sequence[Iterable[PositionReport]],
) -> Iterator[PositionReport]:
    """Heap-merge several event-time-ordered report streams into one.

    Each input must be individually ordered by event time; the output is
    globally ordered. Ties break deterministically by (entity, source).
    """
    def keyed(
        stream_idx: int, stream: Iterable[PositionReport]
    ) -> Iterator[tuple[float, str, str, int, int, PositionReport]]:
        for seq, report in enumerate(stream):
            yield (report.t, report.entity_id, report.source.value, stream_idx, seq, report)

    merged = heapq.merge(*(keyed(i, s) for i, s in enumerate(streams)))
    previous_t: dict[int, float] = {}
    for t, __e, __s, stream_idx, __seq, report in merged:
        last = previous_t.get(stream_idx)
        if last is not None and t < last:
            raise ValueError(f"input stream {stream_idx} is not time-ordered")
        previous_t[stream_idx] = t
        yield report


@dataclass
class FusionConfig:
    """Near-duplicate suppression thresholds.

    Attributes:
        window_s: Two reports closer in time than this are duplicate
            candidates.
        radius_m: ... and closer in space than this are duplicates.
        source_rank: Provider precision ranking; higher wins.
    """

    window_s: float = 5.0
    radius_m: float = 100.0
    source_rank: dict[ReportSource, int] = field(
        default_factory=lambda: dict(DEFAULT_SOURCE_RANK)
    )

    def __post_init__(self) -> None:
        if self.window_s <= 0 or self.radius_m <= 0:
            raise ValueError("fusion thresholds must be positive")


class CrossSourceFuser:
    """Streaming cross-source near-duplicate suppression.

    Call :meth:`accept` per report (event-time order). A report is
    dropped when the same entity already has an accepted report within
    ``window_s`` seconds and ``radius_m`` metres from a source of equal
    or higher rank. A *higher*-ranked report is always accepted (the
    coarse one it shadows was already delivered — downstream layers are
    duplicate-tolerant; what fusion guarantees is that low-precision
    chatter never multiplies the stream).
    """

    def __init__(self, config: FusionConfig | None = None) -> None:
        self.config = config or FusionConfig()
        self._last_accepted: dict[str, PositionReport] = {}
        self.accepted = 0
        self.suppressed = 0

    def _rank(self, source: ReportSource) -> int:
        return self.config.source_rank.get(source, 1)

    def accept(self, report: PositionReport) -> bool:
        """Decide one report; accepted reports update per-entity state."""
        last = self._last_accepted.get(report.entity_id)
        if last is not None and report.t - last.t <= self.config.window_s:
            close = (
                haversine_m(last.lon, last.lat, report.lon, report.lat)
                <= self.config.radius_m
            )
            if close and self._rank(report.source) <= self._rank(last.source):
                self.suppressed += 1
                return False
        self._last_accepted[report.entity_id] = report
        self.accepted += 1
        return True

    def fuse(self, reports: Iterable[PositionReport]) -> list[PositionReport]:
        """Batch helper: filter an event-time-ordered merged stream."""
        return [r for r in reports if self.accept(r)]


def fuse_streams(
    streams: Sequence[Iterable[PositionReport]],
    config: FusionConfig | None = None,
) -> tuple[list[PositionReport], CrossSourceFuser]:
    """Merge + dedupe several provider streams; returns the fused stream
    and the fuser (for its counters)."""
    fuser = CrossSourceFuser(config)
    fused = fuser.fuse(merge_streams(streams))
    return (fused, fuser)
