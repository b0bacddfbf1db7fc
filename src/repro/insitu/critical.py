"""Online critical-point detection.

A *critical point* is a report at which the entity's movement changes
character: it stops or resumes, turns, changes speed, or its communication
gaps begin/end. Keeping exactly these points (plus an error-bound check) is
what lets the synopses achieve high compression "without affecting the
quality of analytics" — between critical points movement is near-linear.

The detector is purely online: it sees one report at a time per entity and
never looks ahead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.geo.geodesy import haversine_m, heading_difference_deg, initial_bearing_deg
from repro.model.reports import PositionReport


class CriticalPointType(enum.Enum):
    """Kinds of critical points annotated on reports."""

    TRACK_START = "track_start"
    STOP_START = "stop_start"
    STOP_END = "stop_end"
    TURN = "turn"
    SPEED_CHANGE = "speed_change"
    GAP_START = "gap_start"
    GAP_END = "gap_end"


@dataclass(frozen=True, slots=True)
class AnnotatedReport:
    """A report plus the critical-point annotations it triggered."""

    report: PositionReport
    critical: tuple[CriticalPointType, ...] = ()

    @property
    def is_critical(self) -> bool:
        """Whether any detector fired on this report."""
        return bool(self.critical)


@dataclass
class _EntityState:
    last: PositionReport | None = None
    prev_heading: float | None = None
    ref_speed: float | None = None
    stopped: bool = False
    in_gap: bool = False


class CriticalPointDetector:
    """Stateful per-entity critical point detection.

    Args:
        stop_speed_mps: Below this speed the entity counts as stopped.
        turn_threshold_deg: Heading change (vs the heading at the last
            critical/kept point) that constitutes a turn.
        speed_change_ratio: Relative speed change (vs the reference speed
            at the last speed event) that constitutes a speed change.
        gap_threshold_s: A report this long after the previous one closes a
            communication gap (and the previous report is retroactively a
            gap start — online, the *current* report is annotated GAP_END).
        enabled: Subset of detectors to run (ablation hook, experiment E9).
    """

    def __init__(
        self,
        stop_speed_mps: float = 0.8,
        turn_threshold_deg: float = 12.0,
        speed_change_ratio: float = 0.25,
        gap_threshold_s: float = 300.0,
        enabled: frozenset[CriticalPointType] | None = None,
    ) -> None:
        if stop_speed_mps < 0 or turn_threshold_deg <= 0:
            raise ValueError("invalid detector thresholds")
        if not (0 < speed_change_ratio < 1):
            raise ValueError("speed_change_ratio must be in (0, 1)")
        if gap_threshold_s <= 0:
            raise ValueError("gap_threshold_s must be positive")
        self.stop_speed_mps = stop_speed_mps
        self.turn_threshold_deg = turn_threshold_deg
        self.speed_change_ratio = speed_change_ratio
        self.gap_threshold_s = gap_threshold_s
        self.enabled = enabled if enabled is not None else frozenset(CriticalPointType)
        self._states: dict[str, _EntityState] = {}

    def _on(self, kind: CriticalPointType) -> bool:
        return kind in self.enabled

    def process(self, report: PositionReport) -> AnnotatedReport:
        """Annotate one report; updates the entity's state."""
        state = self._states.setdefault(report.entity_id, _EntityState())
        critical: list[CriticalPointType] = []

        if state.last is None:
            critical.append(CriticalPointType.TRACK_START)
            state.last = report
            state.ref_speed = report.speed
            state.prev_heading = report.heading
            return AnnotatedReport(report=report, critical=tuple(critical))

        dt = report.t - state.last.t

        # Communication gaps.
        if self._on(CriticalPointType.GAP_END) and dt > self.gap_threshold_s:
            critical.append(CriticalPointType.GAP_END)
            state.in_gap = False

        speed = report.speed
        if speed is None and dt > 0:
            speed = haversine_m(state.last.lon, state.last.lat, report.lon, report.lat) / dt

        # Stop start / end.
        if speed is not None:
            if self._on(CriticalPointType.STOP_START) and not state.stopped and speed < self.stop_speed_mps:
                critical.append(CriticalPointType.STOP_START)
                state.stopped = True
            elif self._on(CriticalPointType.STOP_END) and state.stopped and speed >= self.stop_speed_mps:
                critical.append(CriticalPointType.STOP_END)
                state.stopped = False

        # Turn detection (only meaningful when moving).
        heading = report.heading
        if heading is None:
            dist = haversine_m(state.last.lon, state.last.lat, report.lon, report.lat)
            if dist > 5.0:
                heading = initial_bearing_deg(state.last.lon, state.last.lat, report.lon, report.lat)
        if (
            self._on(CriticalPointType.TURN)
            and heading is not None
            and state.prev_heading is not None
            and not state.stopped
            and heading_difference_deg(heading, state.prev_heading) >= self.turn_threshold_deg
        ):
            critical.append(CriticalPointType.TURN)
            state.prev_heading = heading
        elif heading is not None and state.prev_heading is None:
            state.prev_heading = heading

        # Speed change relative to the reference speed.
        if (
            self._on(CriticalPointType.SPEED_CHANGE)
            and speed is not None
            and state.ref_speed is not None
            and state.ref_speed > self.stop_speed_mps
        ):
            rel = abs(speed - state.ref_speed) / state.ref_speed
            if rel >= self.speed_change_ratio:
                critical.append(CriticalPointType.SPEED_CHANGE)
                state.ref_speed = speed
        elif speed is not None and state.ref_speed is None:
            state.ref_speed = speed

        state.last = report
        return AnnotatedReport(report=report, critical=tuple(critical))

    def reset(self) -> None:
        """Forget all per-entity state."""
        self._states.clear()
