"""Primitive cleaning operators applied directly on the report stream.

These are the first "primitive operators ... applied directly on the data
streams": stateless or per-entity-stateful record filters that remove
records no downstream component should ever see.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.geo.geodesy import haversine_m, haversine_m_arrays
from repro.model.entities import EntityRegistry
from repro.model.reports import PositionReport
from repro.streams.checkpoint import StatefulMixin

if TYPE_CHECKING:
    from repro.core.recordbatch import RecordBatch

#: Entity groups smaller than this go through the scalar path — the numpy
#: round-trip costs more than three haversine calls.
_CHAIN_MIN_GROUP = 4

#: Relative half-width of the decision boundary band inside which the
#: vectorised implied speed is *not* trusted. The numpy haversine kernel
#: can differ from the scalar one by a few ulp (SIMD transcendentals vs
#: libm, ~1e-15 relative); any implied speed within 1e-9 relative of the
#: ceiling is recomputed with the scalar kernel, so the batch decision is
#: bit-identical to the per-record decision by construction.
_BOUNDARY_MARGIN = 1e-9


class PlausibilityFilter(StatefulMixin):
    """Rejects physically impossible reports.

    A report is rejected when the implied speed from the entity's previous
    accepted report exceeds the entity's physical ceiling (with a tolerance
    factor), or when its own speed field exceeds the ceiling. Reports that
    go backwards in time relative to the entity's last accepted report are
    rejected too (the stream layer handles bounded lateness; an entity's
    *own* history must stay ordered for kinematic checks to make sense).
    """

    _STATE_FIELDS = ("_last", "rejected")

    def __init__(
        self,
        registry: EntityRegistry | None = None,
        default_max_speed_mps: float = 350.0,
        tolerance: float = 1.5,
    ) -> None:
        if tolerance < 1.0:
            raise ValueError("tolerance must be >= 1")
        self._registry = registry
        self._default_max = default_max_speed_mps
        self._tolerance = tolerance
        self._last: dict[str, PositionReport] = {}
        self.rejected = 0

    def _ceiling(self, entity_id: str) -> float:
        if self._registry is not None:
            entity = self._registry.get_or_none(entity_id)
            if entity is not None:
                return entity.max_speed_mps * self._tolerance
        return self._default_max * self._tolerance

    def accept(self, report: PositionReport) -> bool:
        """Decide one report; accepted reports update the per-entity state."""
        ceiling = self._ceiling(report.entity_id)
        if report.speed is not None and report.speed > ceiling:
            self.rejected += 1
            return False
        last = self._last.get(report.entity_id)
        if last is not None:
            dt = report.t - last.t
            if dt <= 0:
                self.rejected += 1
                return False
            implied = haversine_m(last.lon, last.lat, report.lon, report.lat) / dt
            if implied > ceiling:
                self.rejected += 1
                return False
        self._last[report.entity_id] = report
        return True

    def accept_recordbatch(self, rb: "RecordBatch", mask: np.ndarray) -> np.ndarray:
        """Columnar :meth:`accept` over the batch positions where ``mask``.

        The whole accepted-chain recurrence collapses to vector checks
        computed over *all* entity segments at once: no speed field above
        the per-entity ceiling (NaN compares False, matching the scalar
        ``is None`` guard), strictly increasing timestamps, and every
        implied speed below ``ceiling * (1 - _BOUNDARY_MARGIN)``, with
        segment-boundary pairs masked out of the chain; the single link
        to each entity's pre-batch state is decided with the scalar
        kernel directly, so it needs no band. Any segment that fails a
        check — or lands inside the ulp boundary band — replays through
        the scalar :meth:`accept`, so decisions, the ``rejected`` counter
        and per-entity state stay bit-identical to the per-record path.
        """
        out = np.zeros(len(rb), dtype=bool)
        reports = rb.reports
        ordered = rb.order
        act = ordered[mask[ordered]]
        if act.size == 0:
            return out
        codes_act = rb.entity_codes[act]
        vocab = rb.vocabulary
        n_codes = len(vocab)
        ceil_by_code = np.fromiter(
            (self._ceiling(eid) for eid in vocab), np.float64, count=n_codes
        )
        # ok[c] stays True only while the all-accept proof holds for
        # segment c; anything else replays that segment scalar.
        ok = np.ones(n_codes, dtype=bool)
        spd_viol = rb.speed[act] > ceil_by_code[codes_act]
        if spd_viol.any():
            ok[codes_act[spd_viol]] = False
        t_act = rb.t[act]
        lon_act = rb.lon[act]
        lat_act = rb.lat[act]
        boundary = codes_act[1:] != codes_act[:-1]
        dts = np.diff(t_act)
        chain = ~boundary
        bad_dt = (dts <= 0) & chain
        if bad_dt.any():
            ok[codes_act[1:][bad_dt]] = False
        with np.errstate(divide="ignore", invalid="ignore"):
            implied = (
                haversine_m_arrays(lon_act[:-1], lat_act[:-1], lon_act[1:], lat_act[1:])
                / dts
            )
        banded = (implied >= ceil_by_code[codes_act[1:]] * (1.0 - _BOUNDARY_MARGIN)) & chain
        if banded.any():
            ok[codes_act[1:][banded]] = False
        # Segment bounds within `act` (codes_act is sorted by code).
        seg_bounds = np.searchsorted(codes_act, np.arange(n_codes + 1))
        heads = seg_bounds[:-1]
        tails = seg_bounds[1:]
        sizes = tails - heads
        ok &= sizes >= _CHAIN_MIN_GROUP
        act_l = act.tolist()
        for c in range(n_codes):
            size = sizes[c]
            if size == 0:
                continue
            lo, hi = heads[c], tails[c]
            accept_all = bool(ok[c])
            if accept_all:
                last = self._last.get(vocab[c])
                if last is not None:
                    # The link to the pre-batch state, decided with the
                    # scalar kernel directly (exact — no boundary band).
                    head = reports[act_l[lo]]
                    dt0 = head.t - last.t
                    accept_all = (
                        dt0 > 0
                        and haversine_m(last.lon, last.lat, head.lon, head.lat) / dt0
                        <= ceil_by_code[c]
                    )
            if accept_all:
                seg = act[lo:hi]
                out[seg] = True
                self._last[vocab[c]] = reports[seg[-1]]
            else:
                for p in act_l[lo:hi]:
                    out[p] = self.accept(reports[p])
        return out

    def __call__(self, report: PositionReport) -> bool:
        return self.accept(report)


class DeduplicateFilter(StatefulMixin):
    """Drops exact duplicates: same entity, timestamp and position.

    Keeps a bounded per-entity memory of recent (t, lon, lat) keys.
    """

    _STATE_FIELDS = ("_seen", "dropped")

    def __init__(self, memory: int = 64) -> None:
        if memory <= 0:
            raise ValueError("memory must be positive")
        self._memory = memory
        self._seen: dict[str, list[tuple[float, float, float]]] = {}
        self.dropped = 0

    def accept(self, report: PositionReport) -> bool:
        """Decide one report; new reports are remembered."""
        key = (report.t, report.lon, report.lat)
        recent = self._seen.setdefault(report.entity_id, [])
        if key in recent:
            self.dropped += 1
            return False
        recent.append(key)
        if len(recent) > self._memory:
            del recent[: len(recent) - self._memory]
        return True

    def accept_recordbatch(self, rb: "RecordBatch") -> np.ndarray:
        """Columnar :meth:`accept` over a whole batch.

        A key can only repeat if its timestamp repeats, so one freshness
        check per entity segment — no timestamp shared with the entity's
        recent-key memory and no timestamp repeated inside the segment —
        proves every record is fresh. Timestamps are compared through a
        Python set (timestamps are validated finite, so set equality is
        float equality, the same comparison :meth:`accept`'s key tuples
        use). Suspicious segments (a timestamp collision, which may still
        differ in lon/lat) replay through the scalar :meth:`accept`;
        clean segments bulk-append their keys with a single end trim,
        which leaves the same final memory as the per-record trims.
        """
        out = np.zeros(len(rb), dtype=bool)
        reports = rb.reports
        for _code, entity_id, pos in rb.segments():
            if pos.size == 0:
                continue
            t_list = rb.t[pos].tolist()
            recent = self._seen.setdefault(entity_id, [])
            t_set = set(t_list)
            suspicious = len(t_set) < len(t_list)
            if not suspicious and recent:
                suspicious = any(key[0] in t_set for key in recent)
            if suspicious:
                for p in pos.tolist():
                    out[p] = self.accept(reports[p])
                continue
            out[pos] = True
            recent.extend(zip(t_list, rb.lon[pos].tolist(), rb.lat[pos].tolist()))
            if len(recent) > self._memory:
                del recent[: len(recent) - self._memory]
        return out

    def __call__(self, report: PositionReport) -> bool:
        return self.accept(report)


def clean_reports(
    reports: Iterable[PositionReport],
    registry: EntityRegistry | None = None,
) -> list[PositionReport]:
    """Batch helper: dedupe + plausibility-filter a report sequence."""
    dedup = DeduplicateFilter()
    plausible = PlausibilityFilter(registry=registry)
    return [r for r in reports if dedup.accept(r) and plausible.accept(r)]
