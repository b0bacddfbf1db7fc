"""Simple event derivation from the position-report stream.

A :class:`SimpleEventExtractor` consumes reports (one call per report, in
event-time order) and emits :class:`SimpleEvent` instances:

================ ============================================================
``zone_entry``   entity crossed into a zone of interest (attr ``zone``)
``zone_exit``    entity left a zone
``stop_begin``   speed dropped below the stop threshold
``stop_end``     speed recovered
``speed_anomaly`` speed exceeded the entity's plausible ceiling fraction
``gap_start``    retroactive: communication silence began (emitted at
                 reconnection, timestamped at the last report before it)
``gap_end``      communication resumed after a long silence
``proximity``    another entity is within the proximity radius (attr
                 ``other``, ``distance_m``) — the input to encounter-level
                 detectors
================ ============================================================
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Iterable, Iterator, overload

import numpy as np

from repro.cep.detectors import _VECTOR_MIN_CANDIDATES
from repro.geo.geodesy import haversine_m, haversine_m_arrays
from repro.geo.polygon import Polygon
from repro.geo.zone_index import ZoneIndex
from repro.model.entities import EntityRegistry
from repro.model.events import EventKey, EventSeverity, SimpleEvent
from repro.model.reports import PositionReport
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry

#: Conservative metres per degree of latitude (strict lower bound on
#: great-circle distance via the meridian arc — see
#: :data:`repro.cep.detectors._METERS_PER_DEG_LAT_FLOOR`).
_METERS_PER_DEG_LAT_FLOOR = 111194.0


@dataclass(frozen=True, slots=True)
class SimpleEventConfig:
    """Thresholds for simple event derivation.

    Attributes:
        stop_speed_mps: Below → stopped.
        stop_hysteresis: ``stop_end`` requires speed to exceed
            ``stop_speed_mps × stop_hysteresis`` (Schmitt trigger), so
            measurement noise around the threshold cannot toggle the stop
            state on every report.
        speed_anomaly_factor: Speed above ``factor × max_speed`` of the
            entity raises an anomaly.
        gap_threshold_s: Silence longer than this is a communication gap.
        proximity_radius_m: Pairwise distance that triggers proximity
            events.
        proximity_staleness_s: Another entity's last position older than
            this does not count for proximity.
    """

    stop_speed_mps: float = 0.8
    stop_hysteresis: float = 2.0
    speed_anomaly_factor: float = 1.2
    gap_threshold_s: float = 600.0
    proximity_radius_m: float = 5_000.0
    proximity_staleness_s: float = 120.0

    def __post_init__(self) -> None:
        if self.stop_speed_mps < 0 or self.speed_anomaly_factor <= 0:
            raise ValueError("invalid thresholds")
        if self.gap_threshold_s <= 0 or self.proximity_radius_m <= 0:
            raise ValueError("invalid thresholds")


@dataclass
class _EntityState:
    last: PositionReport | None = None
    stopped: bool = False
    zones: set[str] = field(default_factory=set)


class SimpleEventExtractor:
    """Stateful extractor of simple events from an ordered report stream."""

    def __init__(
        self,
        config: SimpleEventConfig | None = None,
        zones: Iterable[Polygon] = (),
        registry: EntityRegistry | None = None,
        metrics: "MetricsRegistry | None" = None,
        zone_index: ZoneIndex | None = None,
    ) -> None:
        self.config = config or SimpleEventConfig()
        self.zones = list(zones)
        self.registry = registry
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._obs = self.metrics.enabled
        self._events_counter = self.metrics.counter("cep.simple_events")
        self._states: dict[str, _EntityState] = {}
        # Latest position per entity for proximity checks.
        self._latest: dict[str, PositionReport] = {}
        if zone_index is not None and len(zone_index) != len(self.zones):
            raise ValueError("zone_index must index exactly the extractor's zones")
        self._zone_index = zone_index
        self._zone_pos = {zone.name: i for i, zone in enumerate(self.zones)}

    def process(self, report: PositionReport) -> list[SimpleEvent]:
        """Derive the simple events triggered by one report."""
        state = self._states.setdefault(report.entity_id, _EntityState())
        events: list[SimpleEvent] = []

        self._gap_events(report, state, events)
        self._stop_events(report, state, events)
        self._speed_anomaly(report, events)
        self._zone_events(report, state, events)
        self._proximity_events(report, events)

        state.last = report
        self._latest[report.entity_id] = report
        if events and self._obs:
            self._events_counter.inc(len(events))
        return events

    def advance_quiet(self, report: PositionReport) -> None:
        """Record a report that provably raises no event: state catch-up only.

        The columnar pipeline walk calls this for reports its conservative
        guards cleared — such a report's only effect in :meth:`process`
        is updating ``state.last`` and the latest-position map (stop state
        and zone membership are untouched by a non-event report), so this
        is exactly the residue of a full :meth:`process` call.
        """
        state = self._states.setdefault(report.entity_id, _EntityState())
        state.last = report
        self._latest[report.entity_id] = report

    def process_all(self, reports: Iterable[PositionReport]) -> list[SimpleEvent]:
        """Batch helper over an event-time-ordered report sequence."""
        out: list[SimpleEvent] = []
        for report in reports:
            out.extend(self.process(report))
        return out

    # -- detectors ------------------------------------------------------------

    def _gap_events(
        self, report: PositionReport, state: _EntityState, events: list[SimpleEvent]
    ) -> None:
        last = state.last
        if last is None:
            return
        if report.t - last.t > self.config.gap_threshold_s:
            events.append(
                SimpleEvent(
                    event_type="gap_start",
                    entity_id=report.entity_id,
                    t=last.t,
                    lon=last.lon,
                    lat=last.lat,
                    severity=EventSeverity.ADVISORY,
                    attributes={"duration_s": report.t - last.t},
                )
            )
            events.append(
                SimpleEvent(
                    event_type="gap_end",
                    entity_id=report.entity_id,
                    t=report.t,
                    lon=report.lon,
                    lat=report.lat,
                    severity=EventSeverity.ADVISORY,
                    attributes={"duration_s": report.t - last.t},
                )
            )

    def _stop_events(
        self, report: PositionReport, state: _EntityState, events: list[SimpleEvent]
    ) -> None:
        speed = self._effective_speed(report, state)
        if speed is None:
            return
        if not state.stopped and speed < self.config.stop_speed_mps:
            state.stopped = True
            events.append(self._event("stop_begin", report, speed_mps=speed))
        elif state.stopped and speed >= self.config.stop_speed_mps * self.config.stop_hysteresis:
            state.stopped = False
            events.append(self._event("stop_end", report, speed_mps=speed))

    def _effective_speed(
        self, report: PositionReport, state: _EntityState
    ) -> float | None:
        if report.speed is not None:
            return report.speed
        if state.last is None:
            return None
        dt = report.t - state.last.t
        if dt <= 0:
            return None
        return haversine_m(state.last.lon, state.last.lat, report.lon, report.lat) / dt

    def _speed_anomaly(self, report: PositionReport, events: list[SimpleEvent]) -> None:
        if report.speed is None or self.registry is None:
            return
        entity = self.registry.get_or_none(report.entity_id)
        if entity is None:
            return
        ceiling = entity.max_speed_mps * self.config.speed_anomaly_factor
        if report.speed > ceiling:
            events.append(
                self._event(
                    "speed_anomaly",
                    report,
                    severity=EventSeverity.WARNING,
                    speed_mps=report.speed,
                    ceiling_mps=ceiling,
                )
            )

    def _zone_events(
        self, report: PositionReport, state: _EntityState, events: list[SimpleEvent]
    ) -> None:
        zones: Iterable[Polygon] = self.zones
        index = self._zone_index
        if index is not None:
            # Prefiltered scan: exact-test only zones whose bbox cells
            # cover the point, plus zones the entity is currently inside
            # (an exit must still be noticed). A zone in neither group is
            # provably not containing the point and not in state.zones,
            # so skipping it emits nothing and mutates nothing — identical
            # to the full scan. Sorted indices preserve zone order.
            candidate = index.candidate_indices(report.lon, report.lat)
            if state.zones:
                pos = self._zone_pos
                indices = sorted(
                    set(candidate).union(pos[name] for name in state.zones)
                )
            else:
                indices = list(candidate)
            zones = (self.zones[i] for i in indices)
        for zone in zones:
            inside = zone.contains(report.lon, report.lat)
            was_inside = zone.name in state.zones
            if inside and not was_inside:
                state.zones.add(zone.name)
                events.append(
                    self._event("zone_entry", report, severity=EventSeverity.WARNING, zone=zone.name)
                )
            elif not inside and was_inside:
                state.zones.discard(zone.name)
                events.append(
                    self._event("zone_exit", report, severity=EventSeverity.INFO, zone=zone.name)
                )

    def _proximity_events(self, report: PositionReport, events: list[SimpleEvent]) -> None:
        radius = self.config.proximity_radius_m
        fresh = [
            other
            for other_id, other in self._latest.items()
            if other_id != report.entity_id
            and report.t - other.t <= self.config.proximity_staleness_s
            and abs(report.lat - other.lat) * _METERS_PER_DEG_LAT_FLOOR <= radius
        ]
        if len(fresh) >= _VECTOR_MIN_CANDIDATES:
            n = len(fresh)
            lons = np.fromiter((o.lon for o in fresh), dtype=np.float64, count=n)
            lats = np.fromiter((o.lat for o in fresh), dtype=np.float64, count=n)
            distances = haversine_m_arrays(report.lon, report.lat, lons, lats)
            events.extend(
                self._proximity_event(report, other, float(d))
                for other, d in zip(fresh, distances)
                if d <= radius
            )
        elif fresh:
            events.extend(self._scalar_proximity(report, fresh))

    def _scalar_proximity(
        self, report: PositionReport, others: Iterable[PositionReport]
    ) -> list[SimpleEvent]:
        """Proximity events of ``report`` against ``others``, in their order.

        Hit decision and ``distance_m`` come from the scalar kernel — the
        per-record path below ``_VECTOR_MIN_CANDIDATES`` fresh candidates.
        The columnar pipeline decides the same hits in its pair join and
        keeps them as a :class:`ProximityRun`, whose rows are built from
        the same floats by the same scalar kernel when they are read.
        """
        radius = self.config.proximity_radius_m
        return [
            self._proximity_event(report, other, distance)
            for other in others
            if (distance := haversine_m(report.lon, report.lat, other.lon, other.lat))
            <= radius
        ]

    @staticmethod
    def _proximity_event(
        report: PositionReport, other: PositionReport, distance: float
    ) -> SimpleEvent:
        # Built directly, not through _event: this is the one event type
        # raised several times per report on a dense fleet.
        return SimpleEvent(
            "proximity",
            report.entity_id,
            report.t,
            report.lon,
            report.lat,
            EventSeverity.ADVISORY,
            {"other": other.entity_id, "distance_m": distance},
        )

    @staticmethod
    def _event(
        event_type: str,
        report: PositionReport,
        severity: EventSeverity = EventSeverity.INFO,
        **attributes,
    ) -> SimpleEvent:
        return SimpleEvent(
            event_type=event_type,
            entity_id=report.entity_id,
            t=report.t,
            lon=report.lon,
            lat=report.lat,
            severity=severity,
            attributes=attributes,
        )


def within_radius(
    radius: float, lon1: np.ndarray, lat1: np.ndarray, lon2: np.ndarray, lat2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Which point pairs lie within ``radius``, as :func:`haversine_m` decides.

    Returns ``(near, hit, band)``. The vector and scalar kernels agree
    within a few ulp (pinned by ``TestKernelParity``), far inside 1e-9
    relative, so a vector distance at most ``radius·(1−1e-9)`` is a scalar
    hit and one above ``radius·(1+1e-9)`` a scalar miss; only the ``band``
    pairs between are evaluated with the scalar kernel. ``near`` marks the
    pairs not above the band: a superset of the hits under either kernel.
    """
    pair = (lon1, lat1, lon2, lat2)
    d = haversine_m_arrays(*pair)
    near = d <= radius * (1.0 + 1e-9)
    hit = d <= radius * (1.0 - 1e-9)
    band = np.flatnonzero(near & ~hit)
    for k, *coords in zip(band.tolist(), *(c[band].tolist() for c in pair)):
        hit[k] = haversine_m(*coords) <= radius
    return near, hit, int(band.size)


def _proximity_row(report: PositionReport, other: PositionReport) -> SimpleEvent:
    return SimpleEventExtractor._proximity_event(
        report, other, haversine_m(report.lon, report.lat, other.lon, other.lat)
    )


class ProximityRun(Sequence[SimpleEvent]):
    """Proximity events held as the report pairs that raise them.

    Row ``i`` is the event of ``subjects[i]`` against ``others[i]``. A run
    stores nothing computed: a row is built on read by
    :meth:`SimpleEventExtractor._proximity_event` with ``distance_m`` from
    :func:`haversine_m` — the same floats through the same function as
    :meth:`SimpleEventExtractor._scalar_proximity`, so every field equals
    the per-record path's. A :class:`~repro.model.events.SimpleEventLog`
    chunk; :meth:`keys` reads no distance and builds no row.
    """

    __slots__ = ("subjects", "others")

    def __init__(
        self, subjects: list[PositionReport], others: list[PositionReport]
    ) -> None:
        self.subjects = subjects
        self.others = others

    def __len__(self) -> int:
        return len(self.subjects)

    def __iter__(self) -> Iterator[SimpleEvent]:
        return map(_proximity_row, self.subjects, self.others)

    @overload
    def __getitem__(self, index: int) -> SimpleEvent: ...

    @overload
    def __getitem__(self, index: slice) -> list[SimpleEvent]: ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(_proximity_row, self.subjects[index], self.others[index]))
        return _proximity_row(self.subjects[index], self.others[index])

    def keys(self, start: int = 0) -> Iterator[EventKey]:
        """``(event_type, entity_id, t)`` of rows ``start:``, no row built."""
        return (("proximity", r.entity_id, r.t) for r in self.subjects[start:])
