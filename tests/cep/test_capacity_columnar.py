"""Columnar capacity demand against the per-record oracle.

:meth:`CapacityDemandDetector.process_recordbatch` must be an exact bulk
equivalent of one :meth:`~CapacityDemandDetector.process` call per
position: the same window-close events at the same positions, the same
presence sets in the same sector order, the same current window, with
state carried from call to call. Sectors overlap and share names, sector
counts straddle the zone-prefilter gate, and timestamps sit on, and one
ulp either side of, window boundaries, negative and out of order.

Both detectors run under ``determinism_sanitizer()`` (CI's "Sanitizer
differential arm").
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import determinism_sanitizer
from repro.cep.detectors import CapacityDemandDetector
from repro.core.recordbatch import RecordBatch
from repro.geo.bbox import BBox
from repro.geo.polygon import Polygon
from repro.geo.zone_index import PREFILTER_MIN_ZONES
from repro.model.reports import PositionReport

WINDOWS = (600.0, 7.5, 0.1, 1.0 / 3.0)


@st.composite
def sectors(draw):
    """Overlapping rectangles and triangles, at least 3 wide, on a 0..10
    grid; names from a pool smaller than the sector count so some sectors
    share one."""
    n = draw(st.integers(1, PREFILTER_MIN_ZONES + 4))
    n_names = draw(st.integers(max(1, n - 2), n))
    out = []
    for __ in range(n):
        name = f"s{draw(st.integers(0, n_names - 1))}"
        x0 = draw(st.integers(0, 5))
        x1 = draw(st.integers(x0 + 3, 10))
        y0 = draw(st.integers(0, 5))
        y1 = draw(st.integers(y0 + 3, 10))
        if draw(st.booleans()):
            out.append(Polygon.rectangle(name, BBox(x0, y0, x1, y1)))
        else:
            out.append(Polygon(name, ((x0, y0), (x1, y0), (x0, y1))))
    return out


def _timestamps(window_s):
    """Window multiples, their float neighbours, and plain values."""
    k = st.integers(-1, 2)
    on_edge = k.map(lambda i: i * window_s)
    below = on_edge.map(lambda t: math.nextafter(t, -math.inf))
    above = on_edge.map(lambda t: math.nextafter(t, math.inf))
    plain = st.floats(-window_s, 2 * window_s, allow_nan=False)
    return st.one_of(on_edge, below, above, plain)


@st.composite
def streams(draw):
    window_s = draw(st.sampled_from(WINDOWS))
    coord = st.one_of(st.integers(0, 10).map(float), st.floats(-1.0, 11.0, allow_nan=False))
    record = st.tuples(st.integers(0, 5), _timestamps(window_s), coord, coord, st.booleans())
    records = draw(st.lists(record, min_size=20, max_size=80))
    # Time-ordered (long window runs, so windows fill and overload), one
    # entity class lagging a window behind the rest, or as drawn.
    order = draw(st.sampled_from(["sorted", "lagged", "raw"]))
    if order != "raw":
        lag = window_s if order == "lagged" else 0.0
        records.sort(key=lambda rec: rec[1] + (lag if rec[0] % 2 else 0.0))
    n_cuts = draw(st.integers(0, 4))
    cuts = sorted(draw(st.lists(st.integers(0, len(records)), min_size=n_cuts, max_size=n_cuts)))
    return window_s, records, cuts


def _state(detector):
    return (
        detector._current_window,
        [(name, set(entities)) for name, entities in detector._present.items()],
    )


@settings(max_examples=200, deadline=None)
@given(zones=sectors(), stream=streams(), capacity=st.integers(1, 2))
@example(
    zones=[Polygon.rectangle("a", BBox(0, 0, 5, 5)), Polygon.rectangle("b", BBox(0, 0, 10, 10))],
    stream=(
        600.0,
        [(0, 0.0, 7.0, 7.0, True), (1, 1.0, 2.0, 2.0, True), (2, 600.0, 2.0, 2.0, True)],
        [],
    ),
    capacity=1,
)
def test_columnar_matches_per_record(zones, stream, capacity):
    window_s, records, cuts = stream
    scalar = CapacityDemandDetector(zones, capacity=capacity, window_s=window_s)
    columnar = CapacityDemandDetector(zones, capacity=capacity, window_s=window_s)
    reports = [
        PositionReport(entity_id=f"E{e}", t=t, lon=lon, lat=lat) for e, t, lon, lat, __ in records
    ]
    active = [a for *__, a in records]
    bounds = [0, *cuts, len(reports)]
    for lo, hi in zip(bounds, bounds[1:]):
        if lo == hi:
            continue
        rb = RecordBatch.from_reports(reports[lo:hi])
        positions = np.flatnonzero(active[lo:hi])
        inside_cols = [z.contains_batch(rb.lon, rb.lat) for z in zones]
        expected = {}
        with determinism_sanitizer():
            for p in positions.tolist():
                events = scalar.process(rb.reports[p])
                if events:
                    expected[p] = events
            actual = columnar.process_recordbatch(rb, positions, inside_cols)
        assert actual == expected
        assert _state(columnar) == _state(scalar)
    assert columnar.flush() == scalar.flush()


@settings(max_examples=300, deadline=None)
@given(
    ts=st.lists(st.floats(-1e12, 1e12, allow_nan=False), min_size=1, max_size=40),
    window_s=st.one_of(st.sampled_from(WINDOWS), st.floats(1e-6, 1e6)),
)
def test_window_index_parity(ts, window_s):
    edges = [i * window_s for i in range(-3, 4)]
    ts = ts + edges + [math.nextafter(t, d) for t in edges for d in (-math.inf, math.inf)]
    column = (np.asarray(ts) // window_s).tolist()
    assert [int(w) for w in column] == [int(t // window_s) for t in ts]


def test_first_hit_order_beats_sector_order():
    """A later sector hit by an earlier record enters the window first."""
    zones = [Polygon.rectangle("a", BBox(0, 0, 5, 5)), Polygon.rectangle("b", BBox(0, 0, 10, 10))]
    detector = CapacityDemandDetector(zones, capacity=1, window_s=600.0)
    reports = [
        PositionReport(entity_id=e, t=t, lon=x, lat=x)
        for e, t, x in (("E0", 0.0, 7.0), ("E1", 1.0, 2.0), ("E2", 2.0, 2.0), ("E0", 600.0, 2.0))
    ]
    rb = RecordBatch.from_reports(reports)
    inside_cols = [z.contains_batch(rb.lon, rb.lat) for z in zones]
    closed = detector.process_recordbatch(rb, np.arange(len(rb)), inside_cols)
    assert list(closed) == [3]
    assert [e.attributes["sector"] for e in closed[3]] == ["b", "a"]
