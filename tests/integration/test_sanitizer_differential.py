"""Differential arm executed under the runtime determinism sanitizer.

The batch/per-record differential proves two runs *agree*; this arm
additionally proves the agreement was produced without touching ambient
nondeterminism: inside :func:`repro.analysis.sanitizer.determinism_sanitizer`
every wall-clock read, global-RNG draw, and ``datetime.now`` raises
(the ``repro.obs`` measurement boundary excepted). If any tier of the
pipeline — ingest, CEP (including the columnar core's proximity
emission, on a dense fleet), RDF emission, checkpoint/restore — ever grows a
hidden clock or RNG dependency, this suite fails with the exact call
site in the traceback, complementing rule D4's static call-chain proof.

CI runs this file as its own step (see ``.github/workflows/ci.yml``,
"sanitizer differential arm").
"""

import pytest

from repro.analysis.sanitizer import DeterminismViolation, determinism_sanitizer
from repro.core.pipeline import BatchOptions, CheckpointOptions, MobilityPipeline
from repro.sources.generators import MaritimeTrafficGenerator
from repro.streams.checkpoint import InMemoryCheckpointStore


@pytest.fixture(scope="module")
def sample():
    return MaritimeTrafficGenerator(seed=23).generate(
        n_vessels=5, max_duration_s=1800.0
    )


@pytest.fixture(scope="module")
def reports(sample):
    return sorted(sample.reports, key=lambda r: r.t)


def _pipeline(sample, **kwargs):
    return MobilityPipeline(
        bbox=sample.world.bbox,
        registry=sample.registry,
        zones=sample.world.zones,
        **kwargs,
    )


class TestSanitizedDifferential:
    def test_per_record_run_is_clock_and_rng_free(self, sample, reports):
        pipeline = _pipeline(sample)
        with determinism_sanitizer():
            result = pipeline.run(reports)
        assert result.deterministic_bytes()

    def test_batch_equals_per_record_under_sanitizer(self, sample, reports):
        baseline = _pipeline(sample)
        batched = _pipeline(sample)
        with determinism_sanitizer():
            expected = baseline.run(reports)
            actual = batched.run(reports, batch=BatchOptions(size=7))
        assert actual.deterministic_bytes() == expected.deterministic_bytes()

    def test_checkpoint_resume_under_sanitizer(self, sample, reports):
        store = InMemoryCheckpointStore()
        half = len(reports) // 2
        with determinism_sanitizer():
            first = _pipeline(sample)
            first.run(
                reports[:half],
                checkpoints=CheckpointOptions(store=store, interval=25),
            )
            resumed = _pipeline(sample)
            resumed_result = resumed.run(
                reports, checkpoints=CheckpointOptions(store=store, resume=True)
            )
            uninterrupted = _pipeline(sample).run(reports)
        assert (
            resumed_result.deterministic_bytes()
            == uninterrupted.deterministic_bytes()
        )

    def test_dense_columnar_emission_under_sanitizer(self, dense_maritime_sample):
        """Batches of 256 over a dense fleet: the columnar core's pair join
        emits the proximity events (the arms above stay under its
        16-record threshold or raise almost none)."""
        dense = sorted(dense_maritime_sample.reports, key=lambda r: r.t)
        with determinism_sanitizer():
            expected = _pipeline(dense_maritime_sample).run(dense)
            actual = _pipeline(dense_maritime_sample).run(
                dense, batch=BatchOptions(size=256)
            )
        assert actual.simple_events == expected.simple_events
        assert actual.deterministic_bytes() == expected.deterministic_bytes()

    def test_sanitizer_would_catch_a_violation(self, sample, reports):
        """The arm is live: an injected clock read fails loudly."""
        import time

        pipeline = _pipeline(sample)
        with determinism_sanitizer():
            pipeline.run(reports)
            with pytest.raises(DeterminismViolation):
                time.time()
