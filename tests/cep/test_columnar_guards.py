"""Columnar CEP guards against the scalar rules they mirror.

A guard names the records of a batch that must run a component's scalar
rule; every record it leaves out must provably raise nothing there. Each
test runs the guard on a batch, then the scalar rule over every masked
record of it, on one component whose state carries from batch to batch:

- :meth:`SimpleEventExtractor.replay_mask` flags every record whose
  :meth:`~SimpleEventExtractor.process` raises a zone, gap, stop or
  anomaly event, or changes its stop state or zone membership;
- :meth:`SimpleEventExtractor.proximity_pairs` holds exactly the
  proximity events ``process`` raises, on every record it does not send
  to the vector kernel;
- :meth:`CollisionRiskDetector.replay_mask` flags every record whose
  ``process`` raises an event;
- :func:`~repro.geo.cpa.cpa_may_fire` holds wherever
  :func:`~repro.geo.cpa.cpa_tcpa` fires;
- :meth:`LoiteringDetector.process_recordbatch` equals one ``process``
  call per record, events and state;
- :meth:`RecordBatch.asof_join` equals a scan per entity.

Timestamps straddle the gap and staleness thresholds, speeds the stop,
hysteresis and anomaly thresholds; streams are time-ordered or not. Guards
and scalar rules run under ``determinism_sanitizer()`` (CI's "Sanitizer
differential arm").
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import determinism_sanitizer
from repro.cep.detectors import CollisionRiskDetector, LoiteringDetector
from repro.cep.simple import ProximityRun, SimpleEventConfig, SimpleEventExtractor
from repro.core.recordbatch import RecordBatch
from repro.geo.bbox import BBox
from repro.geo.cpa import cpa_may_fire, cpa_tcpa
from repro.geo.polygon import Polygon
from repro.geo.zone_index import PREFILTER_MIN_ZONES, ZoneIndex
from repro.model.entities import EntityRegistry, Vessel
from repro.model.reports import PositionReport

#: Gap threshold and staleness of the extractor under test, and the steps
#: between consecutive timestamps: zero, on, and one ulp either side.
GAP_S = 60.0
STALE_S = 30.0
STEPS = [0.0, 1.0, STALE_S, GAP_S, math.nextafter(GAP_S, 0.0), math.nextafter(GAP_S, math.inf), 500.0]
#: Stop 0.8 m/s, hysteresis ×2, anomaly ceiling 5 m/s × 1.2 — and each
#: of them one ulp either side.
SPEED_EDGES = [0.8, 1.6, 6.0]
SPEEDS = [0.0, 1.0, 7.0, *(math.nextafter(v, d) for v in SPEED_EDGES for d in (0.0, 10.0))]
SPEEDS += SPEED_EDGES

#: A pair whose vector haversine exceeds its scalar one (by 2 ulp): with the
#: candidate radius at the scalar distance, only the guard's 1e-9 band keeps
#: the scalar detector's hit.
BAND_OTHER = (0.8797, 0.6226)
BAND_SELF = (0.8604, 0.4709)
BAND_RADIUS = 17004.249601486907


@st.composite
def streams(draw, max_entities=5, span=0.2, with_alt=False):
    """``(records, cuts)``: ``(entity, t, lon, lat, speed, heading, alt,
    active)`` records and the batch boundaries between them."""
    n_entities = draw(st.integers(1, max_entities))
    n = draw(st.integers(1, 60))
    coord = st.floats(0.0, span, allow_nan=False)
    t = 0.0
    records = []
    for __ in range(n):
        t += draw(st.sampled_from(STEPS))
        records.append((
            draw(st.integers(0, n_entities - 1)),
            t,
            draw(coord),
            draw(coord),
            draw(st.one_of(st.none(), st.sampled_from(SPEEDS), st.floats(0.0, 20.0))),
            draw(st.one_of(st.none(), st.floats(0.0, 359.9))),
            draw(st.one_of(st.none(), st.floats(0.0, 1e4))) if with_alt else None,
            draw(st.integers(0, 7)) > 0,
        ))
    if draw(st.booleans()):
        records = draw(st.permutations(records))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    return records, cuts


def _batches(stream):
    """Each batch of the stream with its active mask."""
    records, cuts = stream
    reports = [
        PositionReport(
            entity_id=f"E{e}", t=t, lon=lon, lat=lat, speed=spd, heading=hdg, alt=alt
        )
        for e, t, lon, lat, spd, hdg, alt, __ in records
    ]
    bounds = [0, *cuts, len(reports)]
    for lo, hi in zip(bounds, bounds[1:]):
        if lo < hi:
            yield RecordBatch.from_reports(reports[lo:hi]), np.array([r[-1] for r in records[lo:hi]])


@st.composite
def zone_sets(draw):
    """Overlapping rectangles over the stream's area, straddling the
    zone-prefilter gate."""
    zones = []
    for i in range(draw(st.integers(0, PREFILTER_MIN_ZONES + 2))):
        x0, y0 = draw(st.floats(0.0, 0.15)), draw(st.floats(0.0, 0.15))
        x1, y1 = draw(st.floats(x0 + 0.01, 0.2)), draw(st.floats(y0 + 0.01, 0.2))
        zones.append(Polygon.rectangle(f"z{i}", BBox(x0, y0, x1, y1)))
    return zones


def _stop_and_zones(extractor, entity_id):
    st_ = extractor._states.get(entity_id)
    return (False, frozenset()) if st_ is None else (st_.stopped, frozenset(st_.zones))


@settings(max_examples=120, deadline=None)
@given(stream=streams(), zones=zone_sets(), indexed=st.booleans())
@example(
    # A gap inside the batch, then one across the batch boundary.
    stream=(
        [
            (0, 0.0, 0.1, 0.1, 3.0, None, None, True),
            (0, 100.0, 0.1, 0.1, 3.0, None, None, True),
            (0, 200.0, 0.1, 0.1, 3.0, None, None, True),
        ],
        [2],
    ),
    zones=[],
    indexed=False,
)
def test_extractor_replay_mask_flags_every_event(stream, zones, indexed):
    registry = EntityRegistry()
    for e in range(0, 5, 2):
        registry.add(Vessel(entity_id=f"E{e}", name=f"E{e}", max_speed_mps=5.0))
    extractor = SimpleEventExtractor(
        config=SimpleEventConfig(gap_threshold_s=GAP_S),
        zones=zones,
        registry=registry,
        zone_index=ZoneIndex(zones) if indexed and zones else None,
    )
    for rb, mask in _batches(stream):
        inside_cols = [z.contains_batch(rb.lon, rb.lat) for z in zones]
        with determinism_sanitizer():
            flagged = extractor.replay_mask(rb, mask, inside_cols)
            assert not flagged[~mask].any()
            for p in np.flatnonzero(mask).tolist():
                report = rb.reports[p]
                before = _stop_and_zones(extractor, report.entity_id)
                events = [e for e in extractor.process(report) if e.event_type != "proximity"]
                if events or _stop_and_zones(extractor, report.entity_id) != before:
                    assert flagged[p], (p, events)


@settings(max_examples=80, deadline=None)
@given(stream=streams(max_entities=20, span=0.05), radius=st.sampled_from([500.0, 2000.0, 5000.0]))
def test_proximity_pairs_hold_the_scalar_proximity_events(stream, radius):
    extractor = SimpleEventExtractor(
        config=SimpleEventConfig(proximity_radius_m=radius, proximity_staleness_s=STALE_S)
    )
    for rb, mask in _batches(stream):
        active = np.flatnonzero(mask)
        if not active.size:
            continue
        with determinism_sanitizer():
            (start, subjects, others), vector, __ = extractor.proximity_pairs(
                rb, active, *rb.asof_join(active)
            )
            for i, p in enumerate(active.tolist()):
                events = [e for e in extractor.process(rb.reports[p]) if e.event_type == "proximity"]
                if not vector[i]:
                    run = ProximityRun(subjects[start[i] : start[i + 1]], others[start[i] : start[i + 1]])
                    assert list(run) == events


def _band_pair(cut):
    other = (0, 0.0, *BAND_OTHER, 10.0, 180.0, None, True)
    this = (1, 1.0, *BAND_SELF, 10.0, 0.0, None, True)
    return ([other, this], [1] if cut else [])


@settings(max_examples=120, deadline=None)
@given(
    stream=st.one_of(streams(), streams(with_alt=True), streams(max_entities=20)),
    radius=st.sampled_from([2000.0, 20000.0, BAND_RADIUS]),
    cpa=st.sampled_from([500.0, 5000.0, 1e7]),
    tcpa=st.sampled_from([60.0, 1200.0, 1e7]),
)
@example(stream=_band_pair(cut=False), radius=BAND_RADIUS, cpa=1e7, tcpa=1e7)
@example(stream=_band_pair(cut=True), radius=BAND_RADIUS, cpa=1e7, tcpa=1e7)
def test_collision_replay_mask_flags_every_event(stream, radius, cpa, tcpa):
    detector = CollisionRiskDetector(
        cpa_threshold_m=cpa, tcpa_threshold_s=tcpa, candidate_radius_m=radius, staleness_s=STALE_S
    )
    for rb, mask in _batches(stream):
        active = np.flatnonzero(mask)
        if not active.size:
            continue
        with determinism_sanitizer():
            may = detector.replay_mask(rb, active, *rb.asof_join(active))
            for i, p in enumerate(active.tolist()):
                events = detector.process(rb.reports[p])
                if events:
                    assert may[i], (p, events)


def test_band_pair_is_inside_the_band():
    """The explicit examples above only bite while the pair sits there."""
    from repro.geo.geodesy import haversine_m, haversine_m_arrays

    assert haversine_m(*BAND_SELF, *BAND_OTHER) == BAND_RADIUS
    vector = haversine_m_arrays(np.array([BAND_SELF[0]]), np.array([BAND_SELF[1]]), *BAND_OTHER)
    assert vector[0] > BAND_RADIUS


@settings(max_examples=400, deadline=None)
@given(
    a=st.tuples(st.floats(0.0, 0.3), st.floats(0.0, 0.3), st.floats(0.0, 20.0), st.floats(0.0, 359.9)),
    b=st.tuples(st.floats(0.0, 0.3), st.floats(0.0, 0.3), st.floats(0.0, 20.0), st.floats(0.0, 359.9)),
    cpa=st.floats(1.0, 5e4),
    tcpa=st.floats(1.0, 5e3),
)
def test_cpa_may_fire_holds_where_cpa_tcpa_fires(a, b, cpa, tcpa):
    result = cpa_tcpa(*a, *b)
    if result.distance_m <= cpa and result.tcpa_s <= tcpa:
        assert cpa_may_fire(*(np.array([v]) for v in a), *b, cpa, tcpa)[0]


@st.composite
def loiter_streams(draw):
    """Slow drifters, fast movers and parked entities around one point."""
    n = draw(st.integers(1, 80))
    t = 0.0
    records = []
    for __ in range(n):
        t += draw(st.sampled_from([0.0, 10.0, 30.0, 100.0]))
        step = draw(st.sampled_from([0.0, 1e-5, 1e-4, 1e-2]))
        records.append((
            draw(st.integers(0, 3)), t,
            0.5 + step * draw(st.integers(-3, 3)), 0.5 + step * draw(st.integers(-3, 3)),
            None, None, None, draw(st.integers(0, 7)) > 0,
        ))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    return records, cuts


def _loitering_state(detector):
    return (
        detector._t, detector._lon, detector._lat, detector._start,
        detector._block_until, detector._last_alert,
    )


@settings(max_examples=100, deadline=None)
@given(stream=loiter_streams(), refractory=st.sampled_from([0.0, 300.0, 1800.0]))
def test_loitering_recordbatch_matches_per_record(stream, refractory):
    def detector():
        return LoiteringDetector(radius_m=200.0, min_duration_s=300.0, refractory_s=refractory)

    scalar, columnar = detector(), detector()
    for rb, mask in _batches(stream):
        expected = {}
        with determinism_sanitizer():
            for p in np.flatnonzero(mask).tolist():
                events = scalar.process(rb.reports[p])
                if events:
                    (expected[p],) = events
            actual = columnar.process_recordbatch(rb, mask)
        assert actual == expected
        assert _loitering_state(columnar) == _loitering_state(scalar)


@settings(max_examples=50, deadline=None)
@given(stream=streams(max_entities=6))
def test_asof_join_is_the_latest_row_per_entity(stream):
    for rb, mask in _batches(stream):
        active = np.flatnonzero(mask)
        own, latest = rb.asof_join(active)
        codes = rb.entity_codes[active].tolist()
        for c in range(rb.n_entities):
            last = -1
            for i, code in enumerate(codes):
                if code == c:
                    last = i
                assert own[c, i] == (code == c)
                assert latest[c, i] == last
