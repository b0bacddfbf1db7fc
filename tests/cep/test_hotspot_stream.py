"""Online hot-spot detection."""

import pytest

from repro.cep.hotspot_stream import StreamingHotspotDetector
from repro.geo.bbox import BBox
from repro.geo.grid import GeoGrid
from repro.model.reports import PositionReport


@pytest.fixture()
def grid():
    return GeoGrid(bbox=BBox(24.0, 37.0, 25.0, 38.0), nx=10, ny=10)


def converging_reports(n_entities=6, t0=0.0, n_steps=10):
    """Several entities reporting from the same central cell."""
    out = []
    for step in range(n_steps):
        for e in range(n_entities):
            out.append(
                PositionReport(
                    entity_id=f"E{e}",
                    t=t0 + 60.0 * step + e,
                    lon=24.55 + 0.002 * e,
                    lat=37.55,
                )
            )
    return out


def scattered_reports(t0=0.0):
    """One entity per cell row: uniform, no hotspot."""
    out = []
    for e in range(10):
        out.append(
            PositionReport(entity_id=f"S{e}", t=t0 + e, lon=24.05 + 0.1 * e, lat=37.05)
        )
    return out


class TestStreamingHotspots:
    def test_convergence_detected(self, grid):
        detector = StreamingHotspotDetector(grid, window_s=1800.0, min_entities=3)
        events = detector.process_all(
            converging_reports(n_entities=10) + scattered_reports(t0=700.0)
        )
        hot = [e for e in events if e.event_type == "hotspot"]
        assert hot
        top = hot[0]
        assert top.attributes["entity_count"] == 10
        assert top.attributes["cell"] == grid.cell_of(24.55, 37.55)
        assert len(top.entity_ids) == 10

    def test_uniform_traffic_silent(self, grid):
        detector = StreamingHotspotDetector(grid, window_s=1800.0)
        events = detector.process_all(scattered_reports())
        assert events == []

    def test_windows_independent(self, grid):
        detector = StreamingHotspotDetector(grid, window_s=600.0, min_entities=3)
        # Window 0: convergence; window 1: scattered.
        stream = converging_reports(n_steps=5) + scattered_reports(t0=700.0)
        events = detector.process_all(stream)
        assert all(event.t_start == 0.0 for event in events)

    def test_min_entities_guard(self, grid):
        detector = StreamingHotspotDetector(grid, window_s=1800.0, min_entities=10)
        events = detector.process_all(converging_reports())
        assert events == []

    def test_same_entity_repeats_count_once(self, grid):
        detector = StreamingHotspotDetector(grid, window_s=1800.0, min_entities=2)
        one_entity = [
            PositionReport(entity_id="LONE", t=float(i), lon=24.55, lat=37.55)
            for i in range(100)
        ]
        events = detector.process_all(one_entity + scattered_reports(t0=500.0))
        assert events == []

    def test_flush_idempotent(self, grid):
        detector = StreamingHotspotDetector(grid, window_s=600.0, min_entities=3)
        for report in converging_reports(n_steps=3):
            detector.process(report)
        first = detector.flush()
        assert detector.flush() == []
        assert first or first == []  # flush returns, second is empty

    def test_validation(self, grid):
        for window_s in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                StreamingHotspotDetector(grid, window_s=window_s)
        with pytest.raises(ValueError):
            StreamingHotspotDetector(grid, min_entities=0)
