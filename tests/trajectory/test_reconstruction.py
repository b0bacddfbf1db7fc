"""Trajectory reconstruction from noisy/unordered report streams."""

import numpy as np
import pytest

from repro.model.reports import PositionReport
from repro.trajectory.reconstruction import (
    ReconstructionConfig,
    TrajectoryReconstructor,
    reconstruct_all,
)


def report(entity="V1", t=0.0, lon=24.0, lat=37.0):
    return PositionReport(entity_id=entity, t=t, lon=lon, lat=lat)


def walk(entity="V1", n=20, t0=0.0, dt=10.0, lon0=24.0, step=0.001):
    return [report(entity, t0 + i * dt, lon0 + i * step) for i in range(n)]


class TestBatchReconstruction:
    def test_orders_out_of_order_input(self):
        reports = walk()
        shuffled = [reports[i] for i in (3, 0, 5, 1, 4, 2)] + reports[6:]
        (trajectory,) = TrajectoryReconstructor().reconstruct(shuffled)
        assert list(trajectory.t) == sorted(trajectory.t)
        assert len(trajectory) == len(reports)

    def test_duplicate_timestamps_dropped(self):
        reports = walk(n=5)
        doubled = reports + [reports[2]]
        (trajectory,) = TrajectoryReconstructor().reconstruct(doubled)
        assert len(trajectory) == 5

    def test_teleport_rejected(self):
        reports = walk(n=10)
        reports.insert(5, report(t=45.0, lon=28.0))  # impossible jump
        config = ReconstructionConfig(max_speed_mps=50.0)
        (trajectory,) = TrajectoryReconstructor(config).reconstruct(reports)
        assert len(trajectory) == 10
        assert float(trajectory.lon.max()) < 25.0

    def test_gap_splits_segments(self):
        early = walk(n=5)
        late = walk(n=5, t0=10_000.0, lon0=24.5)
        segments = TrajectoryReconstructor(
            ReconstructionConfig(max_gap_s=600.0)
        ).reconstruct(early + late)
        assert len(segments) == 2
        assert segments[0].end_time < segments[1].start_time

    def test_short_segments_discarded(self):
        lonely = [report(t=0.0)] + walk(n=5, t0=10_000.0)
        segments = TrajectoryReconstructor(
            ReconstructionConfig(max_gap_s=600.0, min_segment_points=2)
        ).reconstruct(lonely)
        assert len(segments) == 1
        assert len(segments[0]) == 5

    def test_mixed_entities_rejected(self):
        with pytest.raises(ValueError):
            TrajectoryReconstructor().reconstruct([report("A"), report("B", t=1.0)])

    def test_empty_input(self):
        assert TrajectoryReconstructor().reconstruct([]) == []

    def test_smoothing_reduces_noise(self):
        rng = np.random.default_rng(4)
        noisy = [
            report(t=10.0 * i, lon=24.0 + 0.001 * i, lat=37.0 + float(rng.normal(0, 0.0002)))
            for i in range(60)
        ]
        rough = TrajectoryReconstructor().reconstruct(noisy)[0]
        smooth = TrajectoryReconstructor(
            ReconstructionConfig(smooth_window=3)
        ).reconstruct(noisy)[0]
        assert float(np.std(np.diff(smooth.lat))) < float(np.std(np.diff(rough.lat)))

    def test_3d_preserved(self):
        reports = [
            PositionReport(entity_id="F1", t=10.0 * i, lon=24.0 + 0.001 * i,
                           lat=37.0, alt=1000.0 + 50.0 * i)
            for i in range(10)
        ]
        (trajectory,) = TrajectoryReconstructor().reconstruct(reports)
        assert trajectory.is_3d
        assert float(trajectory.alt[-1]) == pytest.approx(1450.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReconstructionConfig(max_gap_s=0.0)
        with pytest.raises(ValueError):
            ReconstructionConfig(min_segment_points=0)


class TestReconstructAll:
    def test_groups_by_entity(self, maritime_sample):
        result = reconstruct_all(maritime_sample.reports)
        assert set(result) == set(maritime_sample.truth)
        for segments in result.values():
            assert len(segments) >= 1

    def test_reconstruction_close_to_truth(self, maritime_sample):
        from repro.geo.geodesy import haversine_m

        result = reconstruct_all(maritime_sample.reports)
        for entity_id, segments in result.items():
            truth = maritime_sample.truth[entity_id]
            rebuilt = segments[0]
            mid_t = (rebuilt.start_time + rebuilt.end_time) / 2.0
            a = rebuilt.at_time(mid_t)
            b = truth.at_time(mid_t)
            assert haversine_m(a.lon, a.lat, b.lon, b.lat) < 200.0
