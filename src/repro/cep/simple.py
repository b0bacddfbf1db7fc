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
from typing import TYPE_CHECKING, Any, Iterable, Iterator, overload

import numpy as np

from repro.cep.detectors import METERS_PER_DEG_LAT_FLOOR, VECTOR_MIN_CANDIDATES
from repro.geo.geodesy import haversine_m, haversine_m_arrays
from repro.geo.polygon import Polygon
from repro.geo.zone_index import ZoneIndex
from repro.model.entities import EntityRegistry
from repro.model.events import EventKey, EventSeverity, SimpleEvent, SimpleEventLog
from repro.model.reports import PositionReport
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry

if TYPE_CHECKING:
    from repro.core.recordbatch import RecordBatch

#: Proximity hits of a batch as :meth:`SimpleEventExtractor.proximity_pairs`
#: returns them: ``(start, subjects, others)``.
ProximityHits = tuple[list[int], list[PositionReport], list[PositionReport]]


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

        :func:`repro.cep.columnar.detect` calls this for reports
        :meth:`replay_mask` cleared — such a report's only effect in :meth:`process`
        is updating ``state.last`` and the latest-position map (stop state
        and zone membership are untouched by a non-event report), so this
        is exactly the residue of a full :meth:`process` call.
        """
        state = self._states.get(report.entity_id)
        if state is None:
            state = self._states[report.entity_id] = _EntityState()
        state.last = report
        self._latest[report.entity_id] = report

    def process_all(self, reports: Iterable[PositionReport]) -> list[SimpleEvent]:
        """Batch helper over an event-time-ordered report sequence."""
        out: list[SimpleEvent] = []
        for report in reports:
            out.extend(self.process(report))
        return out

    # -- columnar guards -------------------------------------------------------

    def replay_mask(
        self, rb: RecordBatch, mask: np.ndarray, inside_cols: Sequence[np.ndarray]
    ) -> np.ndarray:
        """The positions of ``rb`` among ``mask`` that must run :meth:`process`.

        Vector replicas of the zone, gap, anomaly and stop checks, per
        entity segment, seeded from the pre-batch entity state
        (``inside_cols[i]`` is ``zones[i].contains_batch`` over the batch).
        A position left unflagged raises none of those events and leaves
        stop state and zone membership as they are, so once every earlier
        position has run, :meth:`advance_quiet` is its exact residue.
        Proximity is decided by :meth:`proximity_pairs` instead.
        """
        cfg = self.config
        gap_th = cfg.gap_threshold_s
        stop_sp = cfg.stop_speed_mps
        # Same two config floats, same single multiply as the scalar
        # Schmitt trigger — the cached product is float-identical.
        stop_hi = stop_sp * cfg.stop_hysteresis
        # Anomaly ceiling per entity: the identical `max_speed * factor`
        # product the scalar check computes, one registry lookup per
        # entity instead of one per record.
        ceilings: list[float | None] = [None] * len(rb.vocabulary)
        if self.registry is not None:
            for code, eid in enumerate(rb.vocabulary):
                ent = self.registry.get_or_none(eid)
                if ent is not None:
                    ceilings[code] = ent.max_speed_mps * cfg.speed_anomaly_factor

        flagged = np.zeros(len(rb), dtype=bool)
        for code, eid, pos in rb.segments_where(mask):
            m = pos.size
            t_seg = rb.t[pos]
            spd_seg = rb.speed[pos]
            st = self._states.get(eid)
            last = st.last if st is not None else None
            # Zone guard: membership of each zone evolves only at
            # containment transitions along the entity's active records
            # (seeded from pre-batch state.zones), so exactly the
            # transition records can emit zone events or mutate
            # state.zones.
            member = st.zones if st is not None else ()
            for zone, col in zip(self.zones, inside_cols):
                vals = col[pos]
                if bool(vals[0]) != (zone.name in member):
                    flagged[pos[0]] = True
                if m > 1:
                    hits = pos[1:][vals[1:] != vals[:-1]]
                    if hits.size:
                        flagged[hits] = True
            # Gap guard: exact — same float subtraction and compare.
            flag = np.zeros(m, dtype=bool)
            if m > 1:
                flag[1:] = (t_seg[1:] - t_seg[:-1]) > gap_th
            if last is not None:
                flag[0] = (t_seg[0] - last.t) > gap_th
            # Anomaly guard: exact vector replica of the scalar compare
            # (NaN speeds compare False, like `is None`).
            ceiling = ceilings[code]
            if ceiling is not None:
                flag |= spd_seg > ceiling
            # Stop guard: mirror the Schmitt trigger exactly. With real
            # speeds the stop state toggles *only* on records this marks,
            # so the mirrored state stays in lockstep with the scalar
            # path. A NaN speed (derived distance/dt speed, unknown here)
            # is marked whenever a previous report exists and degrades
            # the mirror to a conservative superset: while the state is
            # unknown, every record that could toggle either way is
            # marked.
            sim = st.stopped if st is not None else False
            unknown = False
            stop_idx = []
            for k, s in enumerate(spd_seg.tolist()):
                if s != s:
                    if k > 0 or last is not None:
                        stop_idx.append(k)
                        unknown = True
                    continue
                if unknown:
                    if s < stop_sp or s >= stop_hi:
                        stop_idx.append(k)
                elif sim:
                    if s >= stop_hi:
                        stop_idx.append(k)
                        sim = False
                elif s < stop_sp:
                    stop_idx.append(k)
                    sim = True
            if stop_idx:
                flag[stop_idx] = True
            flagged[pos[flag]] = True
        return flagged

    def proximity_pairs(
        self, rb: RecordBatch, active: np.ndarray, own: np.ndarray, latest: np.ndarray
    ) -> tuple[ProximityHits, np.ndarray, int]:
        """The proximity events of ``rb``'s ``active`` rows, as report pairs.

        ``(own, latest)`` is ``rb.asof_join(active)``. One join row per
        entity that can be a candidate at all, one column per active
        record. The rows are the latest-position map in insertion order
        (entries outside the batch are frozen during it: one constant row
        each, dropped when already stale at the batch's earliest record),
        then the batch's new entities by first appearance — the order
        :meth:`_proximity_events` scans in. The candidate mask replicates
        its freshness and latitude-band prefilters exactly (same floats,
        same IEEE compares); hits are the scalar kernel's decision
        (:func:`within_radius`).

        Returns ``((start, subjects, others), vector, band)``: the hits of
        active record ``i`` are ``start[i]:start[i + 1]`` of the subject
        and other-entity as-of report lists, in scan order; ``vector``
        marks records with near candidates whose fresh count reaches
        ``VECTOR_MIN_CANDIDATES`` — there the scalar path takes distances
        from the vector kernel, so those records must run :meth:`process`;
        ``band`` counts the candidates the scalar kernel decided.
        """
        cfg = self.config
        stale = cfg.proximity_staleness_s
        radius = cfg.proximity_radius_m
        reports = rb.reports
        n_active = int(active.size)
        codes = rb.entity_codes[active]
        tA = rb.t[active]
        latA = rb.lat[active]
        lonA = rb.lon[active]

        # An entity can be in the batch vocabulary with zero *active* rows
        # (every record masked, e.g. dropped as out-of-order on re-ingest):
        # its join row is all-fallback, or absent when it has no state.
        code_of = {eid: c for c, eid in enumerate(rb.vocabulary)}
        t_first = tA.min()
        ent_code: list[int] = []
        ent_last: list[PositionReport | None] = []
        for oid, o in self._latest.items():
            c = code_of.pop(oid, -1)
            # Same float subtraction as the mask below, monotone in the
            # record's t: stale at the earliest record proves the whole
            # row False.
            if c >= 0 or not t_first - o.t > stale:
                ent_code.append(c)
                ent_last.append(o)
        has_row = own.any(axis=1)
        first_row = own.argmax(axis=1).tolist()
        for c in sorted(code_of.values(), key=first_row.__getitem__):
            if has_row[c]:
                ent_code.append(c)
                ent_last.append(None)
        ent_codes = np.array(ent_code, dtype=np.intp)
        # -inf timestamps make the staleness check unsatisfiable where no
        # pre-batch state exists.
        f_t = np.array([-np.inf if o is None else o.t for o in ent_last])
        f_lat = np.array([0.0 if o is None else o.lat for o in ent_last])
        f_lon = np.array([0.0 if o is None else o.lon for o in ent_last])

        # Code -1 (outside the batch) picks the appended all -1 row; a -1
        # source wraps to the last row under fancy indexing — harmless,
        # np.where discards it.
        src = np.vstack([latest, np.full((1, n_active), -1)])[ent_codes]
        has = src >= 0
        lat2 = np.where(has, latA[src], f_lat[:, None])
        cand = (
            (ent_codes[:, None] != codes[None, :])
            & ((tA[None, :] - np.where(has, tA[src], f_t[:, None])) <= stale)
            & (np.abs(latA[None, :] - lat2) * METERS_PER_DEG_LAT_FLOOR <= radius)
        )
        if not cand.any():
            return ([0] * (n_active + 1), [], []), np.zeros(n_active, dtype=bool), 0
        # Transposed: candidates come out by record, then in scan order.
        recs, ents = np.nonzero(cand.T)
        ss = src[ents, recs]
        near, hit, band = within_radius(
            radius, lonA[recs], latA[recs],
            np.where(ss >= 0, lonA[ss], f_lon[ents]), lat2[ents, recs],
        )
        ss = ss[hit]
        others = [
            ent_last[e] if q < 0 else reports[q]
            for q, e in zip(np.where(ss >= 0, active[ss], -1).tolist(), ents[hit].tolist())
        ]
        subjects = list(map(reports.__getitem__, active[recs[hit]].tolist()))
        start = np.searchsorted(recs[hit], np.arange(n_active + 1)).tolist()
        n_near = np.bincount(recs[near], minlength=n_active)
        vector = (n_near > 0) & (cand.sum(axis=0) >= VECTOR_MIN_CANDIDATES)
        return (start, subjects, others), vector, band

    def log_proximity(
        self, log: SimpleEventLog, subjects: list[PositionReport], others: list[PositionReport]
    ) -> None:
        """Append hits of :meth:`proximity_pairs` to ``log`` as one unbuilt
        :class:`ProximityRun`, counted as the events :meth:`process` counts."""
        log.append_run(ProximityRun(subjects, others))
        self._events_counter.inc(len(subjects))

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
            and abs(report.lat - other.lat) * METERS_PER_DEG_LAT_FLOOR <= radius
        ]
        if len(fresh) >= VECTOR_MIN_CANDIDATES:
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
        per-record path below ``VECTOR_MIN_CANDIDATES`` fresh candidates.
        :meth:`proximity_pairs` decides the same hits in its pair join and
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
        **attributes: Any,
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

    def __getitem__(self, index: int | slice) -> SimpleEvent | list[SimpleEvent]:
        if isinstance(index, slice):
            return list(map(_proximity_row, self.subjects[index], self.others[index]))
        return _proximity_row(self.subjects[index], self.others[index])

    def keys(self, start: int = 0) -> Iterator[EventKey]:
        """``(event_type, entity_id, t)`` of rows ``start:``, no row built."""
        return (("proximity", r.entity_id, r.t) for r in self.subjects[start:])
