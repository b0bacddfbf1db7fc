"""Trajectory reconstruction from noisy, unordered report streams.

Turns per-entity report sequences into clean :class:`Trajectory` objects:

1. sort by event time, drop duplicates (same timestamp);
2. reject physics-violating jumps (speed ceiling between samples);
3. split into voyage segments wherever the time gap exceeds a threshold;
4. optionally smooth positions with a small moving-average window.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.geo.geodesy import haversine_m
from repro.model.points import Domain
from repro.model.reports import PositionReport
from repro.model.trajectory import Trajectory


@dataclass(frozen=True, slots=True)
class ReconstructionConfig:
    """Reconstruction parameters.

    Attributes:
        max_gap_s: Gap above which the track splits into segments.
        max_speed_mps: Reject a sample implying a higher speed than this
            from its predecessor.
        smooth_window: Moving-average half-window (0 disables smoothing).
        min_segment_points: Segments shorter than this are discarded.
    """

    max_gap_s: float = 1800.0
    max_speed_mps: float = 350.0
    smooth_window: int = 0
    min_segment_points: int = 2

    def __post_init__(self) -> None:
        if self.max_gap_s <= 0 or self.max_speed_mps <= 0:
            raise ValueError("thresholds must be positive")
        if self.smooth_window < 0 or self.min_segment_points < 1:
            raise ValueError("invalid reconstruction config")


class TrajectoryReconstructor:
    """Batch reconstruction of one entity's trajectory segments."""

    def __init__(self, config: ReconstructionConfig | None = None) -> None:
        self.config = config or ReconstructionConfig()

    def reconstruct(self, reports: Iterable[PositionReport]) -> list[Trajectory]:
        """Build clean voyage segments from one entity's reports."""
        ordered = sorted(reports, key=lambda r: r.t)
        if not ordered:
            return []
        entity_id = ordered[0].entity_id
        if any(r.entity_id != entity_id for r in ordered):
            raise ValueError("reconstruct() expects a single entity's reports")

        accepted: list[PositionReport] = []
        for report in ordered:
            if accepted and report.t <= accepted[-1].t:
                continue  # duplicate timestamp
            if accepted:
                dt = report.t - accepted[-1].t
                dist = haversine_m(accepted[-1].lon, accepted[-1].lat, report.lon, report.lat)
                if dist / dt > self.config.max_speed_mps:
                    continue  # physics-violating jump
            accepted.append(report)

        segments = self._split_gaps(accepted)
        out = []
        for segment in segments:
            if len(segment) < self.config.min_segment_points:
                continue
            out.append(self._build(entity_id, segment))
        return out

    def _split_gaps(self, reports: list[PositionReport]) -> list[list[PositionReport]]:
        segments: list[list[PositionReport]] = []
        current: list[PositionReport] = []
        for report in reports:
            if current and report.t - current[-1].t > self.config.max_gap_s:
                segments.append(current)
                current = []
            current.append(report)
        if current:
            segments.append(current)
        return segments

    def _build(self, entity_id: str, reports: list[PositionReport]) -> Trajectory:
        t = np.array([r.t for r in reports])
        lon = np.array([r.lon for r in reports])
        lat = np.array([r.lat for r in reports])
        has_alt = all(r.alt is not None for r in reports)
        alt = np.array([r.alt for r in reports]) if has_alt else None

        if self.config.smooth_window > 0 and len(reports) > 2:
            lon = _moving_average(lon, self.config.smooth_window)
            lat = _moving_average(lat, self.config.smooth_window)
            if alt is not None:
                alt = _moving_average(alt, self.config.smooth_window)

        domain = reports[0].domain if reports else Domain.MARITIME
        return Trajectory(entity_id, t, lon, lat, alt, domain=domain)

def _moving_average(values: np.ndarray, half_window: int) -> np.ndarray:
    """Centred moving average preserving the endpoints."""
    window = 2 * half_window + 1
    if len(values) < window:
        return values
    kernel = np.ones(window) / window
    smoothed = np.convolve(values, kernel, mode="same")
    # Edges of 'same' convolution are biased; keep the raw endpoints.
    smoothed[:half_window] = values[:half_window]
    smoothed[-half_window:] = values[-half_window:]
    return smoothed


def reconstruct_all(
    reports: Iterable[PositionReport],
    config: ReconstructionConfig | None = None,
) -> dict[str, list[Trajectory]]:
    """Batch helper: reconstruct every entity present in a report stream."""
    by_entity: dict[str, list[PositionReport]] = defaultdict(list)
    for report in reports:
        by_entity[report.entity_id].append(report)
    reconstructor = TrajectoryReconstructor(config)
    return {
        entity_id: reconstructor.reconstruct(entity_reports)
        for entity_id, entity_reports in by_entity.items()
    }
