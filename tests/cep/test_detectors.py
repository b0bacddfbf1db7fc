"""Domain complex-event detectors on scripted scenarios."""

import pytest

from repro.cep.detectors import (
    CapacityDemandDetector,
    CollisionRiskDetector,
    LoiteringDetector,
    RendezvousDetector,
)
from repro.cep.evaluation import match_events, promote
from repro.cep.simple import SimpleEventExtractor
from repro.geo.bbox import BBox
from repro.geo.polygon import Polygon
from repro.model.reports import PositionReport
from repro.sources.scenarios import (
    aviation_near_miss_scenario,
    collision_course_scenario,
    loitering_scenario,
    rendezvous_scenario,
    zone_intrusion_scenario,
)


class TestCollisionRisk:
    def test_scripted_scenario_detected(self):
        scenario = collision_course_scenario()
        detector = CollisionRiskDetector()
        detections = []
        for report in scenario.reports:
            detections.extend(detector.process(report))
        score = match_events(detections, scenario.expected)
        assert score.recall == 1.0
        assert score.precision == 1.0

    def test_parallel_traffic_no_alert(self):
        detector = CollisionRiskDetector(cpa_threshold_m=500.0)
        # Two vessels 5 km apart on the same eastbound course.
        reports = []
        for i in range(30):
            t = 10.0 * i
            reports.append(PositionReport(
                entity_id="A", t=t, lon=24.0 + 0.001 * i, lat=37.00,
                speed=8.0, heading=90.0))
            reports.append(PositionReport(
                entity_id="B", t=t + 1.0, lon=24.0 + 0.001 * i, lat=37.045,
                speed=8.0, heading=90.0))
        detections = []
        for report in reports:
            detections.extend(detector.process(report))
        assert detections == []

    def test_refractory_limits_alerts(self):
        scenario = collision_course_scenario()
        detector = CollisionRiskDetector(refractory_s=1e9)
        detections = []
        for report in scenario.reports:
            detections.extend(detector.process(report))
        assert len(detections) == 1

    def test_severity_escalates_near_tcpa(self):
        from repro.model.events import EventSeverity

        scenario = collision_course_scenario()
        detector = CollisionRiskDetector(refractory_s=60.0)
        detections = []
        for report in scenario.reports:
            detections.extend(detector.process(report))
        assert detections[-1].severity == EventSeverity.ALARM

    def test_missing_kinematics_skipped(self):
        detector = CollisionRiskDetector()
        bare = PositionReport(entity_id="A", t=0.0, lon=24.0, lat=37.0)
        assert detector.process(bare) == []


class TestAviationNearMiss:
    @staticmethod
    def atm_detector():
        return CollisionRiskDetector(
            cpa_threshold_m=9_000.0,           # ~5 NM
            vertical_threshold_m=300.0,        # ~1000 ft
            tcpa_threshold_s=600.0,
            candidate_radius_m=150_000.0,
        )

    def test_same_level_crossing_alerts(self):
        scenario = aviation_near_miss_scenario()
        detector = self.atm_detector()
        detections = []
        for report in scenario.reports:
            detections.extend(detector.process(report))
        # ATM-style thresholds alert exactly the same-level pair — the
        # +600 m crosser is vertically separated even with a 9 km
        # horizontal threshold.
        assert {d.entity_ids for d in detections} == {("NM01", "NM02")}
        score = match_events(detections, scenario.expected)
        assert score.precision == 1.0 and score.recall == 1.0

    def test_vertically_separated_silent(self):
        scenario = aviation_near_miss_scenario(vertical_separation_m=600.0)
        assert scenario.expected == []  # negative control by construction
        detector = self.atm_detector()
        detections = []
        for report in scenario.reports:
            detections.extend(detector.process(report))
        assert detections == []

    def test_vertical_threshold_validation(self):
        with pytest.raises(ValueError):
            CollisionRiskDetector(vertical_threshold_m=0.0)


class TestLoitering:
    def test_scripted_scenario(self):
        scenario = loitering_scenario()
        detector = LoiteringDetector(radius_m=800.0, min_duration_s=900.0)
        detections = []
        for report in scenario.reports:
            detections.extend(detector.process(report))
        score = match_events(detections, scenario.expected)
        assert score.recall == 1.0

    def test_transit_not_loitering(self):
        detector = LoiteringDetector(min_duration_s=300.0)
        detections = []
        for i in range(100):
            detections.extend(detector.process(PositionReport(
                entity_id="A", t=10.0 * i, lon=24.0 + 0.001 * i, lat=37.0, speed=8.0)))
        assert detections == []


class TestRendezvous:
    def test_scripted_scenario(self):
        scenario = rendezvous_scenario()
        extractor = SimpleEventExtractor()
        detector = RendezvousDetector(radius_m=600.0, min_duration_s=600.0)
        detections = []
        for report in scenario.reports:
            for event in extractor.process(report):
                detections.extend(detector.process(event))
            detections.extend(detector.tick(report.t))
        score = match_events(detections, scenario.expected)
        assert score.recall == 1.0
        assert score.precision == 1.0

    def test_stopped_far_apart_not_rendezvous(self):
        from repro.model.events import SimpleEvent

        detector = RendezvousDetector(radius_m=500.0, min_duration_s=60.0)
        detector.process(SimpleEvent("stop_begin", "A", 0.0, 24.0, 37.0))
        detector.process(SimpleEvent("stop_begin", "B", 1.0, 24.5, 37.0))
        assert detector.tick(1_000.0) == []

    def test_stop_end_resets_pair(self):
        from repro.model.events import SimpleEvent

        detector = RendezvousDetector(radius_m=500.0, min_duration_s=100.0)
        detector.process(SimpleEvent("stop_begin", "A", 0.0, 24.0, 37.0))
        detector.process(SimpleEvent("stop_begin", "B", 1.0, 24.001, 37.0))
        detector.process(SimpleEvent("stop_end", "A", 10.0, 24.0, 37.0))
        assert detector.tick(500.0) == []


class TestZoneEventsEndToEnd:
    def test_intrusion_scenario(self):
        scenario = zone_intrusion_scenario()
        extractor = SimpleEventExtractor(zones=scenario.zones)
        simple = extractor.process_all(scenario.reports)
        detections = [promote(e) for e in simple if e.event_type.startswith("zone")]
        score = match_events(detections, scenario.expected)
        assert score.recall == 1.0
        assert score.precision == 1.0


class TestCapacityDemand:
    SECTOR = Polygon.rectangle("s1", BBox(24.0, 37.0, 25.0, 38.0))

    def flights(self, n, t0=0.0):
        return [
            PositionReport(entity_id=f"F{i}", t=t0 + i, lon=24.5, lat=37.5, alt=9000.0)
            for i in range(n)
        ]

    def test_overload_detected_at_window_close(self):
        detector = CapacityDemandDetector([self.SECTOR], capacity=3, window_s=600.0)
        out = []
        for report in self.flights(5):
            out.extend(detector.process(report))
        out.extend(detector.flush())
        assert len(out) == 1
        assert out[0].attributes["sector"] == "s1"
        assert out[0].attributes["count"] == 5

    def test_under_capacity_silent(self):
        detector = CapacityDemandDetector([self.SECTOR], capacity=10, window_s=600.0)
        out = []
        for report in self.flights(5):
            out.extend(detector.process(report))
        out.extend(detector.flush())
        assert out == []

    def test_windows_counted_separately(self):
        detector = CapacityDemandDetector([self.SECTOR], capacity=3, window_s=600.0)
        out = []
        for report in self.flights(5, t0=0.0) + self.flights(2, t0=700.0):
            out.extend(detector.process(report))
        out.extend(detector.flush())
        # Only the first window overloads.
        assert len(out) == 1
        assert out[0].t_start == 0.0

    def test_same_entity_counted_once(self):
        detector = CapacityDemandDetector([self.SECTOR], capacity=2, window_s=600.0)
        out = []
        for i in range(10):  # one aircraft reporting 10 times
            out.extend(detector.process(PositionReport(
                entity_id="F0", t=float(i), lon=24.5, lat=37.5, alt=9000.0)))
        out.extend(detector.flush())
        assert out == []

    def test_validation(self):
        with pytest.raises(ValueError):
            CapacityDemandDetector([self.SECTOR], capacity=0)

    @pytest.mark.parametrize("window_s", [0.0, -600.0, float("nan"), float("inf")])
    def test_non_finite_or_non_positive_window_rejected(self, window_s):
        with pytest.raises(ValueError):
            CapacityDemandDetector([self.SECTOR], window_s=window_s)
