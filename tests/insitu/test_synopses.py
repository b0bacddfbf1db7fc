"""Synopses generator: compression with bounded reconstruction error."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.insitu.quality import evaluate_compression, reconstruction_errors_m
from repro.insitu.synopses import SynopsesConfig, SynopsesGenerator, compress_trajectory
from repro.model.reports import PositionReport
from repro.model.trajectory import Trajectory
from repro.sources.kinematics import simulate_route
from repro.sources.world import RouteSpec


def straight_trajectory(n=200, speed_deg=0.0005):
    return Trajectory(
        "V1",
        [10.0 * i for i in range(n)],
        [24.0 + speed_deg * i for i in range(n)],
        [37.0] * n,
    )


class TestDecisionRule:
    def test_first_report_kept(self):
        gen = SynopsesGenerator()
        __, keep = gen.process(
            PositionReport(entity_id="V1", t=0.0, lon=24.0, lat=37.0, speed=5.0, heading=90.0)
        )
        assert keep

    def test_straight_line_compresses_hard(self):
        compressed, ratio = compress_trajectory(straight_trajectory())
        assert ratio > 0.9
        assert len(compressed) >= 2

    def test_max_silence_forces_keep(self):
        config = SynopsesConfig(dr_error_threshold_m=1e9, max_silence_s=100.0)
        compressed, __ = compress_trajectory(straight_trajectory(), config)
        dts = np.diff(compressed.t)
        assert np.all(dts <= 100.0 + 10.0)

    def test_compression_ratio_counter(self):
        gen = SynopsesGenerator()
        assert gen.compression_ratio == 0.0
        trajectory = straight_trajectory(50)
        compress = compress_trajectory  # silence linters; direct use below
        __, ratio = compress(trajectory)
        assert 0.0 <= ratio <= 1.0

    def test_reset(self):
        gen = SynopsesGenerator()
        gen.process(PositionReport(entity_id="V1", t=0.0, lon=24.0, lat=37.0))
        gen.reset()
        assert gen.seen == 0 and gen.kept == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynopsesConfig(dr_error_threshold_m=-1.0)
        with pytest.raises(ValueError):
            SynopsesConfig(max_silence_s=0.0)


class TestErrorBound:
    @pytest.mark.parametrize("threshold", [50.0, 100.0, 200.0])
    def test_reconstruction_error_bounded(self, threshold):
        # On a turning route the synopsis must stay within a small factor
        # of the dead-reckoning threshold (interpolation between kept
        # points is at most ~2x the per-point bound plus noise).
        route = RouteSpec(
            "dogleg",
            ((24.0, 37.0), (24.3, 37.0), (24.3, 37.3), (24.6, 37.3)),
            speed_mps=9.0,
        )
        truth = simulate_route("V1", route, dt_s=10.0)
        config = SynopsesConfig(dr_error_threshold_m=threshold)
        compressed, ratio = compress_trajectory(truth, config)
        errors = reconstruction_errors_m(truth, compressed)
        assert float(errors.max()) < threshold * 3.0
        assert ratio > 0.5

    def test_smaller_threshold_keeps_more_under_noise(self):
        # The DR threshold bites when measurements wander; on noise-free
        # geometry critical points dominate and the counts barely move.
        import numpy as np

        from repro.sources.noise import SensorModel

        route = RouteSpec(
            "dogleg", ((24.0, 37.0), (24.3, 37.0), (24.3, 37.3)), speed_mps=9.0
        )
        truth = simulate_route("V1", route, dt_s=10.0)
        sensor = SensorModel(report_period_s=10.0, gps_sigma_m=40.0, dropout_prob=0.0)
        reports = sensor.observe(truth, rng=np.random.default_rng(8))
        tight, __ = compress_trajectory(
            truth, SynopsesConfig(dr_error_threshold_m=30.0), reports=reports
        )
        loose, __ = compress_trajectory(
            truth, SynopsesConfig(dr_error_threshold_m=500.0), reports=reports
        )
        assert len(tight) > len(loose)

    @given(threshold=st.floats(30.0, 500.0))
    @settings(max_examples=20, deadline=None)
    def test_quality_monotone_with_threshold(self, threshold):
        truth = straight_trajectory(100)
        compressed, __ = compress_trajectory(
            truth, SynopsesConfig(dr_error_threshold_m=threshold)
        )
        quality = evaluate_compression(truth, compressed)
        # On a straight line the bound is essentially exact.
        assert quality.max_error_m <= threshold * 2.0 + 1.0


class TestQualityMetrics:
    def test_identity_compression_zero_error(self):
        truth = straight_trajectory(50)
        quality = evaluate_compression(truth, truth)
        assert quality.rmse_m == pytest.approx(0.0, abs=1e-6)
        assert quality.compression_ratio == 0.0
        assert quality.length_error_ratio == pytest.approx(0.0, abs=1e-9)

    def test_endpoint_only_compression(self):
        truth = straight_trajectory(50)
        endpoints = truth.slice_index(0, 1).append(
            truth.slice_index(len(truth) - 1, len(truth))
        )
        quality = evaluate_compression(truth, endpoints)
        assert quality.compression_ratio == pytest.approx(0.96, abs=0.01)
        # Straight line: even 2 points reconstruct well.
        assert quality.rmse_m < 50.0

    def test_heading_fidelity_on_dogleg(self):
        route = RouteSpec(
            "dogleg", ((24.0, 37.0), (24.3, 37.0), (24.3, 37.3)), speed_mps=9.0
        )
        truth = simulate_route("V1", route, dt_s=10.0)
        compressed, __ = compress_trajectory(
            truth, SynopsesConfig(dr_error_threshold_m=100.0)
        )
        quality = evaluate_compression(truth, compressed)
        # The turn is preserved: heading error stays far below the 90°
        # course change the route contains.
        assert 0.0 <= quality.heading_rmse_deg < 30.0

    def test_empty_compressed_rejected(self):
        truth = straight_trajectory(10)
        with pytest.raises(ValueError):
            reconstruction_errors_m(truth, Trajectory("V1", [], [], []))
