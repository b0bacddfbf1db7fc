"""Online hot-spot detection over the live report stream.

The batch analytics (:mod:`repro.trajectory.hotspots`) find hot spots in
an archive; the paper's phrasing — "recognition and forecasting of ...
hot spots / paths" — wants them *live*. This detector maintains tumbling
windows of per-cell entity presence and, at each window close, raises a
``hotspot`` complex event for every cell whose distinct-entity count is
anomalously high for the window (Getis-Ord-style z-score over the
window's density surface, same statistic as the batch path).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable

import numpy as np

from repro.geo.grid import GeoGrid
from repro.model.events import ComplexEvent, EventSeverity
from repro.model.reports import PositionReport
from repro.trajectory.hotspots import hotspot_cells


class StreamingHotspotDetector:
    """Tumbling-window hot-spot recognition.

    Args:
        grid: Density grid (cell size = hotspot resolution).
        window_s: Tumbling window length.
        z_threshold: Getis-Ord-style z-score above which a cell is hot.
        min_entities: Cells with fewer distinct entities in the window
            never alert (guards tiny-traffic windows where the z-score is
            meaningless).
    """

    def __init__(
        self,
        grid: GeoGrid,
        window_s: float = 1800.0,
        z_threshold: float = 2.5,
        min_entities: int = 3,
    ) -> None:
        if not 0 < window_s < math.inf:
            raise ValueError("window_s must be finite and positive")
        if min_entities < 1:
            raise ValueError("min_entities must be >= 1")
        self.grid = grid
        self.window_s = window_s
        self.z_threshold = z_threshold
        self.min_entities = min_entities
        self._current_window: int | None = None
        # (ix, iy) -> set of entity ids present this window
        self._presence: dict[tuple[int, int], set[str]] = defaultdict(set)

    def process(self, report: PositionReport) -> list[ComplexEvent]:
        """Feed one report (event-time order); windows close as time passes."""
        window_idx = int(report.t // self.window_s)
        out: list[ComplexEvent] = []
        if self._current_window is not None and window_idx != self._current_window:
            out = self._close_window(self._current_window)
        self._current_window = window_idx
        cell = self.grid.cell_of(report.lon, report.lat)
        self._presence[cell].add(report.entity_id)
        return out

    def process_all(self, reports: Iterable[PositionReport]) -> list[ComplexEvent]:
        """Batch helper over an ordered stream; flushes the final window."""
        out: list[ComplexEvent] = []
        for report in reports:
            out.extend(self.process(report))
        out.extend(self.flush())
        return out

    def flush(self) -> list[ComplexEvent]:
        """Close the final window at end of stream."""
        if self._current_window is None:
            return []
        out = self._close_window(self._current_window)
        self._current_window = None
        return out

    def _close_window(self, window_idx: int) -> list[ComplexEvent]:
        density = np.zeros((self.grid.ny, self.grid.nx))
        for (ix, iy), entities in self._presence.items():
            density[iy, ix] = float(len(entities))
        presence, self._presence = self._presence, defaultdict(set)

        t_start = window_idx * self.window_s
        t_end = t_start + self.window_s
        out: list[ComplexEvent] = []
        for ix, iy, z in hotspot_cells(density, z_threshold=self.z_threshold):
            entities = presence.get((ix, iy), set())
            if len(entities) < self.min_entities:
                continue
            lon, lat = self.grid.cell_bbox(ix, iy).center
            out.append(
                ComplexEvent(
                    event_type="hotspot",
                    entity_ids=tuple(sorted(entities)),
                    t_start=t_start,
                    t_end=t_end,
                    severity=EventSeverity.ADVISORY,
                    attributes={
                        "cell": (ix, iy),
                        "lon": lon,
                        "lat": lat,
                        "z_score": z,
                        "entity_count": len(entities),
                    },
                )
            )
        return out
