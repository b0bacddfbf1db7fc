"""The synopses generator: online, error-bounded trajectory compression.

Decision rule per report (per entity):

1. keep every critical point (from :class:`CriticalPointDetector`);
2. otherwise keep the report iff dead-reckoning from the last *kept* report
   (constant speed and heading) mispredicts the current position by more
   than ``dr_error_threshold_m``;
3. drop everything else.

Rule 2 bounds the reconstruction error of the synopsis: any dropped report
was within the threshold of the linear motion model anchored at a kept
report, so linear interpolation between kept reports stays within a small
factor of the threshold. Rule 1 preserves the semantic structure (stops,
turns, gaps) that downstream analytics — and the paper's event detection —
depend on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.geo.geodesy import (
    EARTH_RADIUS_M,
    destination_point,
    haversine_m,
    heading_difference_deg,
    sphere_unit_vectors,
)
from repro.insitu.critical import AnnotatedReport, CriticalPointDetector, CriticalPointType
from repro.model.reports import PositionReport

if TYPE_CHECKING:
    from repro.core.recordbatch import RecordBatch
from repro.model.trajectory import Trajectory
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry


@dataclass(frozen=True)
class SynopsesConfig:
    """Tuning knobs of the synopses generator.

    Attributes:
        dr_error_threshold_m: Dead-reckoning error bound; the main
            compression-vs-fidelity dial (experiment E1 sweeps it).
        max_silence_s: A report is always kept when this much time passed
            since the last kept one (bounds worst-case reconstruction gaps).
        stop_speed_mps / turn_threshold_deg / speed_change_ratio /
        gap_threshold_s: forwarded to :class:`CriticalPointDetector`.
        enabled_critical: Detector subset (ablation hook, experiment E9).
    """

    dr_error_threshold_m: float = 120.0
    max_silence_s: float = 600.0
    stop_speed_mps: float = 0.8
    turn_threshold_deg: float = 12.0
    speed_change_ratio: float = 0.25
    gap_threshold_s: float = 300.0
    enabled_critical: frozenset[CriticalPointType] = frozenset(CriticalPointType)

    def __post_init__(self) -> None:
        if self.dr_error_threshold_m < 0:
            raise ValueError("dr_error_threshold_m must be >= 0")
        if self.max_silence_s <= 0:
            raise ValueError("max_silence_s must be positive")

    def detector(self) -> CriticalPointDetector:
        """Build the matching critical-point detector."""
        return CriticalPointDetector(
            stop_speed_mps=self.stop_speed_mps,
            turn_threshold_deg=self.turn_threshold_deg,
            speed_change_ratio=self.speed_change_ratio,
            gap_threshold_s=self.gap_threshold_s,
            enabled=self.enabled_critical,
        )


@dataclass
class _KeptState:
    report: PositionReport
    speed: float | None
    heading: float | None


def _anchor_basis(
    lon: float, lat: float, speed: float | None, heading: float | None, radius: float
) -> tuple[float, float, float, bool, float, float, float, float]:
    """Unit position vector and motion basis of a dead-reckoning anchor.

    Returns ``(ax, ay, az, have_kin, bx, by, bz, c)``: the anchor's unit
    3-vector, whether kinematics are available, the unit tangent vector in
    the heading direction (``cos(bearing)·north + sin(bearing)·east``) and
    the angular rate ``speed / radius``. Dead-reckoning ``dt`` seconds is
    then the great-circle rotation ``a·cos(c·dt) + b·sin(c·dt)`` — the
    same mathematical point :func:`destination_point` computes, differing
    only in floating-point route.
    """
    phi = math.radians(lat)
    lam = math.radians(lon)
    cphi = math.cos(phi)
    sphi = math.sin(phi)
    clam = math.cos(lam)
    slam = math.sin(lam)
    ax = cphi * clam
    ay = cphi * slam
    az = sphi
    if speed is None or heading is None:
        return (ax, ay, az, False, 0.0, 0.0, 0.0, 0.0)
    beta = math.radians(heading)
    cb = math.cos(beta)
    sb = math.sin(beta)
    bx = cb * (-sphi * clam) + sb * (-slam)
    by = cb * (-sphi * slam) + sb * clam
    bz = cb * cphi
    return (ax, ay, az, True, bx, by, bz, speed / radius)


class SynopsesGenerator:
    """Online keep/drop decisions over a report stream.

    Call :meth:`process` per report; it returns the annotated report plus
    the keep decision. :attr:`seen` / :attr:`kept` track the compression
    ratio achieved so far. With a ``metrics`` registry, the same numbers
    land on the shared surface (``insitu.synopses.seen`` / ``kept``
    counters and the ``insitu.synopses.compression_ratio`` gauge) when
    :meth:`publish_metrics` runs — publishing is deferred so the per-record
    hot path stays free of instrument calls.
    """

    def __init__(
        self,
        config: SynopsesConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or SynopsesConfig()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._detector = self.config.detector()
        self._last_kept: dict[str, _KeptState] = {}
        self._last_seen: dict[str, PositionReport] = {}
        self.seen = 0
        self.kept = 0
        self._published_seen = 0
        self._published_kept = 0

    @property
    def compression_ratio(self) -> float:
        """Fraction of reports *dropped* so far (0 before any input)."""
        if self.seen == 0:
            return 0.0
        return 1.0 - (self.kept / self.seen)

    def process(self, report: PositionReport) -> tuple[AnnotatedReport, bool]:
        """Decide one report. Returns ``(annotated, keep)``."""
        self.seen += 1
        annotated = self._detector.process(report)
        keep = self._decide(annotated)
        self._last_seen[report.entity_id] = report
        if keep:
            self.kept += 1
            self._last_kept[report.entity_id] = _KeptState(
                report=report, speed=report.speed, heading=report.heading
            )
        return (annotated, keep)

    def process_recordbatch(
        self, rb: "RecordBatch", active_mask: np.ndarray
    ) -> list[tuple[AnnotatedReport | None, bool] | None]:
        """Columnar keep/drop walk over a batch's active positions.

        Decision-identical to calling :meth:`process` per active record in
        stream order, by construction:

        * A conservative guard re-evaluates every *exact* arithmetic
          condition of :class:`CriticalPointDetector` (gap ``dt``, stop
          thresholds, turn angle, speed-change ratio — all raw-field
          float ops identical to the scalar ones) and sends any record
          that could fire a critical point, derive a missing field, or
          mutate reference state through the scalar :meth:`process`. The
          guard ignores the ``enabled`` ablation subset, which only ever
          adds scalar calls, never skips a fire.
        * Provably boring records decide keep/drop on the unit-sphere
          *chord* of the dead-reckoning error — monotonically equivalent
          to the haversine distance — against a band of half-width
          ``1e-6`` relative (plus an absolute floor) around the chord
          threshold. The scalar and chord routes agree far inside the
          band (their floating-point routes differ by ~1e-11 relative);
          records landing inside it replay through :meth:`process`.

        Per-entity detector/seen state is synced lazily (once per scalar
        call and at segment end), so the observable state after the batch
        matches the per-record path exactly. Returns a position-indexed
        list: ``(annotated, True)`` for keeps, ``(None, False)`` for
        drops, ``None`` at inactive positions.
        """
        det = self._detector
        states = det._states
        gap_th = det.gap_threshold_s
        stop_sp = det.stop_speed_mps
        turn_th = det.turn_threshold_deg
        sc_ratio = det.speed_change_ratio
        max_sil = self.config.max_silence_s
        thr = self.config.dr_error_threshold_m
        radius = EARTH_RADIUS_M
        # Chord threshold: d > thr on the sphere iff chord² > (2 sin(thr/2R))²
        # while thr stays below the antipode (always, for real configs).
        use_chord = thr < math.pi * radius
        cu = 2.0 * math.sin(thr / (2.0 * radius)) if use_chord else 0.0
        cu2 = cu * cu
        # Band half-width: relative term for the chord-vs-haversine ulp
        # spread, a linear term bounding the destination_point-vs-rotation
        # route difference (≲1e-8 m ≈ 1.6e-15 chord units, ×60 headroom),
        # and an absolute floor for thr → 0.
        eps = cu2 * 1e-6 + cu * 1e-13 + 1e-29
        hi = cu2 + eps
        lo = cu2 - eps

        reports = rb.reports
        t_l = rb.t.tolist()
        spd_l = rb.speed.tolist()
        hdg_l = rb.heading.tolist()
        lon_l = rb.lon.tolist()
        lat_l = rb.lat.tolist()
        ux, uy, uz = sphere_unit_vectors(rb.lon, rb.lat)
        x_l = ux.tolist()
        y_l = uy.tolist()
        z_l = uz.tolist()
        out: list[tuple[AnnotatedReport | None, bool] | None] = [None] * len(reports)
        nseen = 0

        for _code, eid, seg in rb.segments_where(active_mask):
            pos = seg.tolist()
            st = states.get(eid)
            if st is None or st.last is None:
                last_t = None
                stopped = False
                ref_h = None
                ref_s = None
            else:
                last_t = st.last.t
                stopped = st.stopped
                ref_h = st.prev_heading
                ref_s = st.ref_speed
            ks = self._last_kept.get(eid)
            if ks is None:
                anchor_t = None
                ax = ay = az = bx = by = bz = c = 0.0
                have_kin = False
            else:
                anchor_t = ks.report.t
                ax, ay, az, have_kin, bx, by, bz, c = _anchor_basis(
                    ks.report.lon, ks.report.lat, ks.speed, ks.heading, radius
                )
            pend = -1
            for p in pos:
                t = t_l[p]
                spd = spd_l[p]
                hdg = hdg_l[p]
                # Conservative superset of every detector fire / state write
                # (`spd != spd` is the NaN ↔ scalar None-derivation guard).
                if last_t is None:
                    interesting = True
                else:
                    dt = t - last_t
                    if dt > gap_th or spd != spd:
                        interesting = True
                    elif (spd >= stop_sp) if stopped else (spd < stop_sp):
                        interesting = True
                    elif hdg != hdg or ref_h is None:
                        interesting = True
                    elif (not stopped) and heading_difference_deg(hdg, ref_h) >= turn_th:
                        interesting = True
                    elif ref_s is None:
                        interesting = True
                    elif ref_s > stop_sp and abs(spd - ref_s) / ref_s >= sc_ratio:
                        interesting = True
                    else:
                        interesting = False
                decide_scalar = interesting
                keep = False
                if not interesting:
                    if anchor_t is None:
                        keep = True
                    else:
                        dta = t - anchor_t
                        if dta >= max_sil:
                            keep = True
                        elif not use_chord:
                            decide_scalar = True
                        else:
                            if have_kin:
                                th_ = c * dta
                                cth = math.cos(th_)
                                sth = math.sin(th_)
                                px = ax * cth + bx * sth
                                py = ay * cth + by * sth
                                pz = az * cth + bz * sth
                            else:
                                px = ax
                                py = ay
                                pz = az
                            dx = px - x_l[p]
                            dy = py - y_l[p]
                            dz = pz - z_l[p]
                            ch2 = dx * dx + dy * dy + dz * dz
                            if ch2 > hi:
                                keep = True
                            elif ch2 >= lo:
                                decide_scalar = True
                if decide_scalar:
                    if pend >= 0:
                        r_prev = reports[pend]
                        st.last = r_prev
                        self._last_seen[eid] = r_prev
                        pend = -1
                    annotated, keep = self.process(reports[p])
                    out[p] = (annotated, keep)
                    st = states[eid]
                    last_t = t
                    stopped = st.stopped
                    ref_h = st.prev_heading
                    ref_s = st.ref_speed
                    if keep:
                        ks = self._last_kept[eid]
                        anchor_t = t
                        ax, ay, az, have_kin, bx, by, bz, c = _anchor_basis(
                            lon_l[p], lat_l[p], ks.speed, ks.heading, radius
                        )
                    continue
                nseen += 1
                r = reports[p]
                if keep:
                    self.kept += 1
                    self._last_kept[eid] = _KeptState(
                        report=r, speed=r.speed, heading=r.heading
                    )
                    out[p] = (AnnotatedReport(report=r), True)
                    anchor_t = t
                    ax, ay, az, have_kin, bx, by, bz, c = _anchor_basis(
                        lon_l[p], lat_l[p], r.speed, r.heading, radius
                    )
                else:
                    out[p] = (None, False)
                last_t = t
                pend = p
            if pend >= 0:
                r_prev = reports[pend]
                st.last = r_prev
                self._last_seen[eid] = r_prev
        self.seen += nseen
        return out

    def publish_metrics(self) -> None:
        """Top the registry up to the current seen/kept totals.

        Counters only move by the delta since the last publish, so calling
        this at every flush point (stream finish, pipeline finalize,
        checkpoint) never double-counts.
        """
        if not self.metrics.enabled:
            return
        self.metrics.counter("insitu.synopses.seen").inc(self.seen - self._published_seen)
        self.metrics.counter("insitu.synopses.kept").inc(self.kept - self._published_kept)
        self._published_seen = self.seen
        self._published_kept = self.kept
        self.metrics.gauge("insitu.synopses.compression_ratio").set(
            self.compression_ratio
        )

    def finish(self, entity_id: str) -> PositionReport | None:
        """Close an entity's track at end of stream.

        Returns the entity's last seen report when it was dropped by the
        online rule — the synopsis must include the track's final position
        or reconstruction error past the last kept point is unbounded.
        Counts the late keep toward the compression statistics.
        """
        last_seen = self._last_seen.get(entity_id)
        if last_seen is None:
            return None
        last_kept = self._last_kept.get(entity_id)
        if last_kept is not None and last_kept.report.t >= last_seen.t:
            return None
        self.kept += 1
        self._last_kept[entity_id] = _KeptState(
            report=last_seen, speed=last_seen.speed, heading=last_seen.heading
        )
        return last_seen

    def finish_all(self) -> list[PositionReport]:
        """Close every entity's track; returns the late-kept reports."""
        out = []
        for entity_id in list(self._last_seen):
            report = self.finish(entity_id)
            if report is not None:
                out.append(report)
        self.publish_metrics()
        return out

    def _decide(self, annotated: AnnotatedReport) -> bool:
        if annotated.is_critical:
            return True
        report = annotated.report
        kept = self._last_kept.get(report.entity_id)
        if kept is None:
            return True
        dt = report.t - kept.report.t
        if dt >= self.config.max_silence_s:
            return True
        predicted = self._dead_reckon(kept, dt)
        if predicted is None:
            # No kinematic state to predict with: fall back to displacement.
            error = haversine_m(kept.report.lon, kept.report.lat, report.lon, report.lat)
        else:
            error = haversine_m(predicted[0], predicted[1], report.lon, report.lat)
        return error > self.config.dr_error_threshold_m

    @staticmethod
    def _dead_reckon(kept: _KeptState, dt: float) -> tuple[float, float] | None:
        if kept.speed is None or kept.heading is None:
            return None
        return destination_point(
            kept.report.lon, kept.report.lat, kept.heading, kept.speed * dt
        )

    def reset(self) -> None:
        """Forget all state and counters."""
        self._detector.reset()
        self._last_kept.clear()
        self._last_seen.clear()
        self.seen = 0
        self.kept = 0
        self._published_seen = 0
        self._published_kept = 0

def compress_trajectory(
    trajectory: Trajectory,
    config: SynopsesConfig | None = None,
    reports: list[PositionReport] | None = None,
) -> tuple[Trajectory, float]:
    """Batch helper: compress a trajectory through the synopses generator.

    Args:
        trajectory: The (dense) input trajectory.
        config: Synopses configuration.
        reports: When given, these reports are compressed instead of
            synthesizing reports from the trajectory samples (used when the
            caller has the original measured stream).

    Returns:
        ``(compressed trajectory, compression ratio)`` where the ratio is
        the fraction of samples dropped.
    """
    generator = SynopsesGenerator(config)
    if reports is None:
        reports = _reports_from_trajectory(trajectory)
    kept_points = []
    for report in reports:
        annotated, keep = generator.process(report)
        if keep:
            kept_points.append(report.point())
    final = generator.finish(trajectory.entity_id)
    if final is not None:
        kept_points.append(final.point())
    compressed = Trajectory.from_points(
        trajectory.entity_id, kept_points, domain=trajectory.domain
    )
    return (compressed, generator.compression_ratio)


def _reports_from_trajectory(trajectory: Trajectory) -> list[PositionReport]:
    """Synthesize reports (with derived speed/heading) from samples."""
    from repro.geo.geodesy import initial_bearing_deg

    reports: list[PositionReport] = []
    n = len(trajectory)
    for i in range(n):
        point = trajectory[i]
        speed = heading = None
        if i + 1 < n:
            nxt = trajectory[i + 1]
            dt = nxt.t - point.t
            dist = haversine_m(point.lon, point.lat, nxt.lon, nxt.lat)
            if dt > 0:
                speed = dist / dt
            if dist > 1.0:
                heading = initial_bearing_deg(point.lon, point.lat, nxt.lon, nxt.lat)
        reports.append(
            PositionReport(
                entity_id=trajectory.entity_id,
                t=point.t,
                lon=point.lon,
                lat=point.lat,
                alt=point.alt,
                speed=speed,
                heading=heading,
                domain=trajectory.domain,
            )
        )
    return reports
