"""Domain-level complex event detectors.

Each detector consumes the report stream (and/or the simple-event stream)
in event-time order and emits :class:`ComplexEvent` instances for the
phenomena the paper names: potential collisions, rendezvous/transshipment
behaviour, loitering, and sector capacity demand. All detectors apply a
per-subject refractory period so a persisting condition raises one event
per episode, not one per report.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.geo.cpa import cpa_may_fire, cpa_tcpa
from repro.geo.geodesy import haversine_m, haversine_m_arrays
from repro.geo.polygon import Polygon
from repro.model.events import ComplexEvent, EventSeverity, SimpleEvent
from repro.model.reports import PositionReport

if TYPE_CHECKING:
    from repro.core.recordbatch import RecordBatch

#: Below this many live candidates the scalar distance loop beats the
#: numpy round-trip; at or above it, distances are computed in one
#: vectorised kernel call.
VECTOR_MIN_CANDIDATES = 16

#: Conservative metres per degree of latitude. Great-circle distance is
#: bounded below by the meridian arc, ``EARTH_RADIUS_M * |Δlat_rad|`` ≈
#: ``111194.93 m/deg``; using a floor a little under that keeps the
#: bound strict through floating-point rounding, so a pair rejected on
#: latitude separation alone is provably outside any radius the exact
#: haversine would have admitted.
METERS_PER_DEG_LAT_FLOOR = 111194.0


def _pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class CollisionRiskDetector:
    """Potential-collision detection via CPA/TCPA on current kinematics.

    On each report, nearby entities (those with a fresh latest position
    within ``candidate_radius_m``) are checked: if the projected closest
    point of approach is under ``cpa_threshold_m`` within
    ``tcpa_threshold_s``, a ``collision_risk`` event is raised for the
    pair (once per ``refractory_s``).

    With ``vertical_threshold_m`` set (aviation), the horizontal and
    vertical separations at CPA are thresholded independently — ATM
    separation standards style (e.g. 5 NM / 1000 ft): a pair conflicts
    only when *both* components are lost.
    """

    def __init__(
        self,
        cpa_threshold_m: float = 1_000.0,
        tcpa_threshold_s: float = 1_200.0,
        candidate_radius_m: float = 20_000.0,
        staleness_s: float = 120.0,
        refractory_s: float = 600.0,
        vertical_threshold_m: float | None = None,
    ) -> None:
        if cpa_threshold_m <= 0 or tcpa_threshold_s <= 0:
            raise ValueError("thresholds must be positive")
        if vertical_threshold_m is not None and vertical_threshold_m <= 0:
            raise ValueError("vertical_threshold_m must be positive")
        self.cpa_threshold_m = cpa_threshold_m
        self.tcpa_threshold_s = tcpa_threshold_s
        self.candidate_radius_m = candidate_radius_m
        self.staleness_s = staleness_s
        self.refractory_s = refractory_s
        self.vertical_threshold_m = vertical_threshold_m
        self._latest: dict[str, PositionReport] = {}
        self._last_alert: dict[tuple[str, str], float] = {}

    def process(self, report: PositionReport) -> list[ComplexEvent]:
        """Feed one report; returns any collision-risk events raised."""
        events: list[ComplexEvent] = []
        if report.speed is not None and report.heading is not None:
            for other in self._candidates(report):
                event = self._check_pair(report, other)
                if event is not None:
                    events.append(event)
        self._latest[report.entity_id] = report
        return events

    def note_position(self, report: PositionReport) -> None:
        """Track a position without running pair checks.

        For callers that already proved :meth:`process` would raise no
        event for this report (no kinematics, or no candidate could pass
        the freshness/latitude prefilter): the only state effect of
        :meth:`process` is then the latest-position write, which this
        performs verbatim.
        """
        self._latest[report.entity_id] = report

    def replay_mask(
        self, rb: "RecordBatch", active: np.ndarray, own: np.ndarray, latest: np.ndarray
    ) -> np.ndarray:
        """Which of ``rb``'s ``active`` rows (aligned with ``active``) may fire.

        ``(own, latest)`` is ``rb.asof_join(active)``: the other entity's
        position as of a row is its latest earlier active row, or its
        pre-batch latest-map entry. Replicates the freshness, kinematics
        and latitude-band prefilters of :meth:`_candidates` exactly, bands
        the exact-distance cut by 1e-9 relative, and adds the conservative
        CPA/TCPA pre-check (:func:`~repro.geo.cpa.cpa_may_fire`). A row left
        unflagged provably raises no event, so :meth:`note_position` is its
        exact residue.
        """
        stale = self.staleness_s
        rad = self.candidate_radius_m
        cpa_thr = self.cpa_threshold_m
        tcpa_thr = self.tcpa_threshold_s
        vocab = rb.vocabulary
        tA = rb.t[active]
        latA = rb.lat[active]
        lonA = rb.lon[active]
        spdA = rb.speed[active]
        hdgA = rb.heading[active]
        kinA = ~(np.isnan(spdA) | np.isnan(hdgA))
        # All-None current altitudes force the scalar CPA 2-D and its
        # fire condition to the maritime branch (see cpa_may_fire).
        use_cpa = bool(np.isnan(rb.alt).all())
        may = np.zeros(int(active.size), dtype=bool)
        # Pre-batch fallback columns per code, from kinematics-bearing
        # latest entries only; -inf timestamps make the staleness check
        # unsatisfiable where there is none.
        prev = [
            o if o is not None and o.speed is not None and o.heading is not None else None
            for o in map(self._latest.get, vocab)
        ]
        fc_kin = np.array([o is not None for o in prev], dtype=bool)
        fc_t = np.array([-np.inf if o is None else o.t for o in prev], dtype=float)
        fc_lat = np.array([0.0 if o is None else o.lat for o in prev], dtype=float)
        fc_lon = np.array([0.0 if o is None else o.lon for o in prev], dtype=float)
        fc_spd = np.array([0.0 if o is None else o.speed for o in prev], dtype=float)
        fc_hdg = np.array([0.0 if o is None else o.heading for o in prev], dtype=float)
        has2 = latest >= 0
        T2 = np.where(has2, tA[latest], fc_t[:, None])
        LAT2 = np.where(has2, latA[latest], fc_lat[:, None])
        KIN2 = np.where(has2, kinA[latest], fc_kin[:, None])
        cand = (
            ~own
            & kinA[None, :]
            & KIN2
            & ((tA[None, :] - T2) <= stale)
            & (np.abs(latA[None, :] - LAT2) * METERS_PER_DEG_LAT_FLOOR <= rad)
        )
        if cand.any():
            rows, cols = np.nonzero(cand)
            hs = has2[rows, cols]
            ss = latest[rows, cols]
            LON2 = np.where(hs, lonA[ss], fc_lon[rows])
            LAT2s = LAT2[rows, cols]
            d = haversine_m_arrays(lonA[cols], latA[cols], LON2, LAT2s)
            near = d <= rad * (1.0 + 1e-9)
            if use_cpa and near.any():
                rows = rows[near]
                cols = cols[near]
                hs = hs[near]
                ss = ss[near]
                fire = cpa_may_fire(
                    lonA[cols], latA[cols], spdA[cols], hdgA[cols],
                    LON2[near], LAT2s[near],
                    np.where(hs, spdA[ss], fc_spd[rows]),
                    np.where(hs, hdgA[ss], fc_hdg[rows]),
                    cpa_thr, tcpa_thr,
                )
                may[cols[fire]] = True
            elif not use_cpa:
                may[cols[near]] = True
        # Latest-map entries outside the batch are frozen during it: one
        # constant column each, skipped when already stale at the batch's
        # earliest record (same float subtraction as the mask, monotone in
        # the row's t, so it proves the whole column False).
        batch_ids = frozenset(vocab)
        t_first = tA.min()
        for oid, o in self._latest.items():
            if (
                oid in batch_ids
                or o.speed is None
                or o.heading is None
                or t_first - o.t > stale
            ):
                continue
            cand = (
                kinA
                & ((tA - o.t) <= stale)
                & (np.abs(latA - o.lat) * METERS_PER_DEG_LAT_FLOOR <= rad)
            )
            if cand.any():
                d = haversine_m_arrays(lonA, latA, o.lon, o.lat)
                cand &= d <= rad * (1.0 + 1e-9)
                if use_cpa and cand.any():
                    cand &= cpa_may_fire(
                        lonA, latA, spdA, hdgA,
                        o.lon, o.lat, o.speed, o.heading,
                        cpa_thr, tcpa_thr,
                    )
                may |= cand
        return may

    def _candidates(self, report: PositionReport) -> list[PositionReport]:
        """Fresh, kinematics-bearing entities within the candidate radius.

        Preserves insertion (= first-seen) order. With enough live
        entities the distance prefilter runs through the vectorised
        haversine kernel in one call instead of one scalar call per
        entity.
        """
        radius = self.candidate_radius_m
        others = [
            other
            for other_id, other in self._latest.items()
            if other_id != report.entity_id
            and report.t - other.t <= self.staleness_s
            and other.speed is not None
            and other.heading is not None
            and abs(report.lat - other.lat) * METERS_PER_DEG_LAT_FLOOR <= radius
        ]
        if len(others) >= VECTOR_MIN_CANDIDATES:
            lons = np.fromiter((o.lon for o in others), dtype=np.float64, count=len(others))
            lats = np.fromiter((o.lat for o in others), dtype=np.float64, count=len(others))
            distances = haversine_m_arrays(report.lon, report.lat, lons, lats)
            return [o for o, d in zip(others, distances) if d <= self.candidate_radius_m]
        return [
            o
            for o in others
            if haversine_m(report.lon, report.lat, o.lon, o.lat) <= self.candidate_radius_m
        ]

    def _check_pair(
        self, report: PositionReport, other: PositionReport
    ) -> ComplexEvent | None:
        result = cpa_tcpa(
            report.lon, report.lat, report.speed or 0.0, report.heading or 0.0,
            other.lon, other.lat, other.speed or 0.0, other.heading or 0.0,
            alt1=report.alt, alt2=other.alt,
            vrate1_mps=report.vertical_rate or 0.0,
            vrate2_mps=other.vertical_rate or 0.0,
        )
        if self.vertical_threshold_m is not None and result.vertical_m is not None:
            # Independent horizontal/vertical separation (ATM style).
            if result.horizontal_m > self.cpa_threshold_m:
                return None
            if result.vertical_m > self.vertical_threshold_m:
                return None
        elif result.distance_m > self.cpa_threshold_m:
            return None
        if result.tcpa_s > self.tcpa_threshold_s:
            return None
        pair = _pair_key(report.entity_id, other.entity_id)
        last = self._last_alert.get(pair)
        if last is not None and report.t - last < self.refractory_s:
            return None
        self._last_alert[pair] = report.t
        severity = (
            EventSeverity.ALARM if result.tcpa_s < self.tcpa_threshold_s / 3.0
            else EventSeverity.WARNING
        )
        return ComplexEvent(
            event_type="collision_risk",
            entity_ids=pair,
            t_start=report.t,
            t_end=report.t,
            severity=severity,
            attributes={
                "cpa_m": result.distance_m,
                "tcpa_s": result.tcpa_s,
                "current_distance_m": result.current_distance_m,
            },
        )


class RendezvousDetector:
    """Two entities stopped together: the transshipment signature.

    Tracks which entities are stopped (from ``stop_begin``/``stop_end``
    simple events) and where; when two stopped entities have been within
    ``radius_m`` of each other for at least ``min_duration_s``, a
    ``rendezvous`` event fires for the pair (once per episode).
    """

    def __init__(self, radius_m: float = 500.0, min_duration_s: float = 600.0) -> None:
        if radius_m <= 0 or min_duration_s <= 0:
            raise ValueError("thresholds must be positive")
        self.radius_m = radius_m
        self.min_duration_s = min_duration_s
        self._stopped_since: dict[str, SimpleEvent] = {}
        self._pair_since: dict[tuple[str, str], float] = {}
        self._alerted: set[tuple[str, str]] = set()

    def process(self, event: SimpleEvent) -> list[ComplexEvent]:
        """Feed one simple event; returns any rendezvous events raised."""
        if event.event_type == "stop_begin":
            self._stopped_since[event.entity_id] = event
        elif event.event_type == "stop_end":
            self._stopped_since.pop(event.entity_id, None)
            for pair in [p for p in self._pair_since if event.entity_id in p]:
                del self._pair_since[pair]
                self._alerted.discard(pair)
            return []
        else:
            return []

        out: list[ComplexEvent] = []
        me = self._stopped_since.get(event.entity_id)
        if me is None:
            return out
        for other_id, other in self._stopped_since.items():
            if other_id == event.entity_id:
                continue
            distance = haversine_m(me.lon, me.lat, other.lon, other.lat)
            pair = _pair_key(event.entity_id, other_id)
            if distance <= self.radius_m:
                self._pair_since.setdefault(pair, max(me.t, other.t))
        out.extend(self._mature_pairs(event.t))
        return out

    @property
    def timing_pairs(self) -> Mapping[tuple[str, str], float]:
        """Live read-only view of the co-stopped pairs being timed, with the
        time each began; :meth:`tick` is a no-op while it is empty."""
        return self._pair_since

    def tick(self, now: float) -> list[ComplexEvent]:
        """Time-driven check: emits pairs whose co-stop matured by ``now``.

        Call periodically (e.g. once per report) because stop events alone
        do not advance time for already-stopped pairs.
        """
        return self._mature_pairs(now)

    def _mature_pairs(self, now: float) -> list[ComplexEvent]:
        out: list[ComplexEvent] = []
        for pair, since in self._pair_since.items():
            if pair in self._alerted:
                continue
            if now - since >= self.min_duration_s:
                self._alerted.add(pair)
                a = self._stopped_since.get(pair[0])
                out.append(
                    ComplexEvent(
                        event_type="rendezvous",
                        entity_ids=pair,
                        t_start=since,
                        t_end=now,
                        severity=EventSeverity.WARNING,
                        attributes={"duration_s": now - since},
                    )
                )
        return out


#: Compact a loitering window's backing lists once this many expired
#: records accumulate at the front (and they are at least half the list).
_LOITER_COMPACT_MIN = 256


class LoiteringDetector:
    """An entity dwelling slowly inside a small area for a long time.

    Keeps a sliding window of recent positions per entity; when the
    window spans at least ``min_duration_s``, fits inside a circle of
    ``radius_m`` and the average speed stays below ``max_speed_mps``, a
    ``loitering`` event fires (once per ``refractory_s``).

    The window is stored column-wise: parallel ``t``/``lon``/``lat``
    lists per entity with a logical start index, compacted periodically.
    Entities that are actually moving are dismissed by a *blocking pair*
    shortcut: when the window's latitude span alone exceeds the diagonal
    budget, the latest-starting suffix whose latitude span still exceeds
    it is located, and every report until that suffix's head expires from
    the window is skipped without touching the window again — the
    diagonal check would provably reject each of them (the meridian arc
    ``Δlat · METERS_PER_DEG_LAT_FLOOR`` is a strict lower bound on the
    haversine diagonal). Bounds, diagonal, duration and travelled
    distance are computed with the same expressions, fold order and
    floats as a naive whole-window rescan, so decisions and event
    payloads are bit-identical to it.
    """

    def __init__(
        self,
        radius_m: float = 1_000.0,
        min_duration_s: float = 900.0,
        max_speed_mps: float = 1.5,
        refractory_s: float = 1800.0,
    ) -> None:
        self.radius_m = radius_m
        self.min_duration_s = min_duration_s
        self.max_speed_mps = max_speed_mps
        self.refractory_s = refractory_s
        self._t: dict[str, list[float]] = {}
        self._lon: dict[str, list[float]] = {}
        self._lat: dict[str, list[float]] = {}
        self._start: dict[str, int] = {}
        self._block_until: dict[str, float] = {}
        self._last_alert: dict[str, float] = {}

    def process(self, report: PositionReport) -> list[ComplexEvent]:
        """Feed one report; returns any loitering events raised."""
        eid = report.entity_id
        tl = self._t.get(eid)
        if tl is None:
            tl = self._t[eid] = []
            lonl = self._lon[eid] = []
            latl = self._lat[eid] = []
            self._start[eid] = 0
        else:
            lonl = self._lon[eid]
            latl = self._lat[eid]
        t = report.t
        tl.append(t)
        lonl.append(report.lon)
        latl.append(report.lat)
        dur = self.min_duration_s
        start = self._start[eid]
        while t - tl[start] > dur:
            start += 1
        if start >= _LOITER_COMPACT_MIN and start * 2 >= len(tl):
            del tl[:start]
            del lonl[:start]
            del latl[:start]
            start = 0
        self._start[eid] = start
        span = t - tl[start]
        if span < dur * 0.95:
            return []
        event = self._evaluate(eid, tl, lonl, latl, start, t, span)
        return [] if event is None else [event]

    def process_recordbatch(
        self, rb: "RecordBatch", mask: np.ndarray
    ) -> dict[int, ComplexEvent]:
        """Feed ``rb``'s records where ``mask`` holds; events keyed by the
        position whose :meth:`process` call raises them.

        Exact bulk equivalent of one :meth:`process` call per masked
        position — same state evolution, bit-identical events. Window,
        refractory and block state are all per entity, so each entity
        segment runs in one go, with its window columns and the config
        gates hoisted out of the per-record loop.
        """
        dur = self.min_duration_s
        # Same two floats, same product as the scalar gate.
        near = dur * 0.95
        refractory = self.refractory_s
        last_alert = self._last_alert
        block_until = self._block_until
        out: dict[int, ComplexEvent] = {}
        for __, eid, pos in rb.segments_where(mask):
            tl = self._t.get(eid)
            if tl is None:
                tl = self._t[eid] = []
                lonl = self._lon[eid] = []
                latl = self._lat[eid] = []
                self._start[eid] = 0
            else:
                lonl = self._lon[eid]
                latl = self._lat[eid]
            start = self._start[eid]
            t_append = tl.append
            lon_append = lonl.append
            lat_append = latl.append
            lons = rb.lon[pos].tolist()
            lats = rb.lat[pos].tolist()
            for k, t in enumerate(rb.t[pos].tolist()):
                t_append(t)
                lon_append(lons[k])
                lat_append(lats[k])
                while t - tl[start] > dur:
                    start += 1
                if start >= _LOITER_COMPACT_MIN and start * 2 >= len(tl):
                    del tl[:start]
                    del lonl[:start]
                    del latl[:start]
                    start = 0
                span = t - tl[start]
                if span < near:
                    continue
                # The refractory and block gates are re-checked (and the
                # block state maintained) inside _evaluate; testing them
                # here first just skips the call for suppressed records.
                last = last_alert.get(eid)
                if last is not None and t - last < refractory:
                    continue
                block = block_until.get(eid)
                if block is not None and t <= block:
                    continue
                event = self._evaluate(eid, tl, lonl, latl, start, t, span)
                if event is not None:
                    out[int(pos[k])] = event
            self._start[eid] = start
        return out

    def _evaluate(
        self,
        eid: str,
        tl: list[float],
        lonl: list[float],
        latl: list[float],
        start: int,
        t: float,
        span: float,
    ) -> ComplexEvent | None:
        """Window-qualified alert decision (refractory/block/geometry)."""
        last = self._last_alert.get(eid)
        if last is not None and t - last < self.refractory_s:
            return None
        block = self._block_until.get(eid)
        if block is not None and t <= block:
            return None

        lat_w = latl[start:]
        min_lat = min(lat_w)
        max_lat = max(lat_w)
        two_r = 2.0 * self.radius_m
        if (max_lat - min_lat) * METERS_PER_DEG_LAT_FLOOR > two_r:
            # Moving entity: find the latest-starting suffix whose
            # latitude span alone blows the budget and skip every report
            # until its head leaves the window.
            run_min = run_max = lat_w[-1]
            blk = start
            for k in range(len(lat_w) - 2, -1, -1):
                v = lat_w[k]
                if v < run_min:
                    run_min = v
                elif v > run_max:
                    run_max = v
                if (run_max - run_min) * METERS_PER_DEG_LAT_FLOOR > two_r:
                    blk = start + k
                    break
            self._block_until[eid] = tl[blk] + self.min_duration_s
            return None

        lon_w = lonl[start:]
        min_lon = min(lon_w)
        max_lon = max(lon_w)
        diagonal = haversine_m(min_lon, min_lat, max_lon, max_lat)
        if diagonal > two_r:
            return None
        duration = span
        travelled = 0.0
        px = lon_w[0]
        py = lat_w[0]
        for k in range(1, len(lon_w)):
            qx = lon_w[k]
            qy = lat_w[k]
            travelled += haversine_m(px, py, qx, qy)
            px = qx
            py = qy
        if duration <= 0 or travelled / duration > self.max_speed_mps:
            return None

        self._last_alert[eid] = t
        return ComplexEvent(
            event_type="loitering",
            entity_ids=(eid,),
            t_start=tl[start],
            t_end=t,
            severity=EventSeverity.WARNING,
            attributes={"area_diagonal_m": diagonal, "duration_s": duration},
        )


class CapacityDemandDetector:
    """Sector capacity demand: too many entities in a sector per window.

    Counts distinct entities present in each sector over tumbling windows;
    when a window's count exceeds the sector's capacity, a
    ``capacity_overload`` event fires at window close. This is the
    aviation "hotspot / capacity demand" phenomenon from the paper.

    :meth:`process` takes one report; :meth:`process_recordbatch` is its
    exact columnar equivalent over a batch whose sector containment is
    already computed. Both share :meth:`flush` and the window state.
    """

    def __init__(
        self,
        sectors: list[Polygon],
        capacity: int = 10,
        window_s: float = 600.0,
    ) -> None:
        if capacity <= 0 or not 0 < window_s < math.inf:
            raise ValueError("capacity must be positive and window finite and positive")
        self.sectors = sectors
        self.capacity = capacity
        self.window_s = window_s
        self._current_window: int | None = None
        self._present: dict[str, set[str]] = defaultdict(set)

    def process(self, report: PositionReport) -> list[ComplexEvent]:
        """Feed one report; emits overload events when a window closes."""
        window_idx = int(report.t // self.window_s)
        out: list[ComplexEvent] = []
        if self._current_window is not None and window_idx != self._current_window:
            out = self._close_window(self._current_window)
        self._current_window = window_idx
        for sector in self.sectors:
            if sector.contains(report.lon, report.lat):
                self._present[sector.name].add(report.entity_id)
        return out

    def process_recordbatch(
        self, rb: "RecordBatch", positions: np.ndarray, inside_cols: list[np.ndarray]
    ) -> dict[int, list[ComplexEvent]]:
        """Feed ``rb``'s records at ``positions`` (ascending); window-close
        events keyed by the position whose :meth:`process` call raises them.

        Exact bulk equivalent of one :meth:`process` call per position.
        ``inside_cols[i]`` is ``sectors[i].contains_batch`` over the whole
        batch, decision-identical to ``sectors[i].contains``. The positions
        split into runs of equal window index; each run closes the current
        window at its first position if the index changed, then adds its
        in-sector entities with one pass per sector. Sector names new to
        ``_present`` enter in order of their first hit, ties by sector
        index, so :meth:`_close_window` sees the scalar insertion order.
        """
        out: dict[int, list[ComplexEvent]] = {}
        if not positions.size:
            return out
        # Float floor division, exactly the scalar ``report.t // window_s``;
        # equal floats are equal window indices, and ``int`` is taken only
        # at run starts.
        windows = rb.t[positions] // self.window_s
        bounds = [0, *(np.flatnonzero(windows[1:] != windows[:-1]) + 1).tolist(), windows.size]
        codes = rb.entity_codes[positions]
        hit_cols = [col[positions] for col in inside_cols]
        vocab = rb.vocabulary
        present = self._present
        for lo, hi in zip(bounds, bounds[1:]):
            window_idx = int(windows[lo])
            if self._current_window is not None and window_idx != self._current_window:
                closed = self._close_window(self._current_window)
                if closed:
                    out[int(positions[lo])] = closed
            self._current_window = window_idx
            hits = []
            for sector, col in zip(self.sectors, hit_cols):
                idx = np.flatnonzero(col[lo:hi])
                if idx.size:
                    hits.append((int(idx[0]), sector.name, idx))
            # Stable: sectors first hit by the same record keep index order.
            hits.sort(key=lambda hit: hit[0])
            run_codes = codes[lo:hi]
            for __, name, idx in hits:
                present[name].update([vocab[c] for c in run_codes[idx].tolist()])
        return out

    def flush(self) -> list[ComplexEvent]:
        """Close the final window at end of stream."""
        if self._current_window is None:
            return []
        out = self._close_window(self._current_window)
        self._current_window = None
        return out

    def _close_window(self, window_idx: int) -> list[ComplexEvent]:
        t_start = window_idx * self.window_s
        t_end = t_start + self.window_s
        out: list[ComplexEvent] = []
        for sector_name, entities in self._present.items():
            if len(entities) > self.capacity:
                out.append(
                    ComplexEvent(
                        event_type="capacity_overload",
                        entity_ids=tuple(sorted(entities)),
                        t_start=t_start,
                        t_end=t_end,
                        severity=EventSeverity.WARNING,
                        attributes={
                            "sector": sector_name,
                            "count": len(entities),
                            "capacity": self.capacity,
                        },
                    )
                )
        self._present.clear()
        return out
