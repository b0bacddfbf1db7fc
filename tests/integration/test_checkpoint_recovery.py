"""Crash-resume differential: recovery must be invisible in the results.

The oracle: a pipeline killed mid-stream and resumed from its last
checkpoint yields event/triple/synopsis results identical to an
uninterrupted run over the same source. Plus the chaos suite: transient
stage failures are retried with backoff and >= 99% of affected reports
recover, the remainder landing in the dead-letter queue.
"""

import pytest

from repro.core.pipeline import CheckpointOptions, MobilityPipeline
from repro.sources.generators import MaritimeTrafficGenerator
from repro.streams.chaos import ChaosConfig, CrashInjector, InjectedCrash, RetryPolicy
from repro.streams.checkpoint import InMemoryCheckpointStore
from repro.streams.replay import ReplayLog


@pytest.fixture(scope="module")
def sample():
    return MaritimeTrafficGenerator(seed=77).generate(
        n_vessels=5, max_duration_s=2400.0
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


@pytest.fixture(scope="module")
def baseline(sample, reports):
    pipeline = _pipeline(sample)
    return pipeline, pipeline.run(reports)


class TestCrashResumeDifferential:
    @pytest.fixture(scope="class")
    def resumed(self, sample, reports):
        store = InMemoryCheckpointStore()
        crashed = _pipeline(sample)
        with pytest.raises(InjectedCrash):
            crashed.run(
                CrashInjector(reports, crash_after=len(reports) * 2 // 3),
                checkpoints=CheckpointOptions(store=store, interval=200),
            )
        # Some progress was lost: the crash happened past the last barrier.
        assert 0 < store.latest().source_offset < len(reports) * 2 // 3

        fresh = _pipeline(sample)  # a new worker, no shared in-memory state
        result = fresh.run(
            ReplayLog(reports), checkpoints=CheckpointOptions(store=store, resume=True)
        )
        return fresh, result

    def test_counts_identical(self, baseline, resumed):
        __, expected = baseline
        __, actual = resumed
        assert actual.reports_in == expected.reports_in
        assert actual.reports_clean == expected.reports_clean
        assert actual.reports_kept == expected.reports_kept
        assert actual.triples_stored == expected.triples_stored

    def test_event_streams_identical(self, baseline, resumed):
        __, expected = baseline
        __, actual = resumed
        assert [(e.event_type, e.entity_id, e.t) for e in actual.simple_events] == [
            (e.event_type, e.entity_id, e.t) for e in expected.simple_events
        ]
        assert [(e.event_type, e.entity_ids, e.t_start) for e in actual.complex_events] == [
            (e.event_type, e.entity_ids, e.t_start) for e in expected.complex_events
        ]

    def test_synopsis_keep_set_identical(self, sample, baseline, resumed):
        """The stored (kept) trajectory of every entity matches exactly."""
        base_pipeline, __ = baseline
        resumed_pipeline, __ = resumed
        for entity_id in sample.truth:
            expected = base_pipeline.executor.entity_trajectory(entity_id)
            actual = resumed_pipeline.executor.entity_trajectory(entity_id)
            assert list(actual.t) == list(expected.t)
            assert list(actual.lon) == list(expected.lon)
            assert list(actual.lat) == list(expected.lat)

    def test_stage_counts_identical(self, baseline, resumed):
        __, expected = baseline
        __, actual = resumed
        for stage in expected.stage_latency:
            assert (
                actual.stage_latency[stage]["count"]
                == expected.stage_latency[stage]["count"]
            )

    def test_resume_without_checkpoint_rejected(self, sample, reports):
        pipeline = _pipeline(sample)
        with pytest.raises(ValueError):
            pipeline.run(
                reports,
                checkpoints=CheckpointOptions(
                    store=InMemoryCheckpointStore(), resume=True
                ),
            )

    def test_double_crash_then_resume(self, sample, reports, baseline):
        """Recovery works even when the resumed run crashes again."""
        __, expected = baseline
        store = InMemoryCheckpointStore()
        first = _pipeline(sample)
        with pytest.raises(InjectedCrash):
            first.run(
                CrashInjector(reports, crash_after=500),
                checkpoints=CheckpointOptions(store=store, interval=150),
            )
        second = _pipeline(sample)
        with pytest.raises(InjectedCrash):
            second.run(
                CrashInjector(reports, crash_after=900),
                checkpoints=CheckpointOptions(store=store, interval=150, resume=True),
            )
        assert store.latest().source_offset == 900
        third = _pipeline(sample)
        result = third.run(
            ReplayLog(reports), checkpoints=CheckpointOptions(store=store, resume=True)
        )
        assert result.reports_in == expected.reports_in
        assert result.triples_stored == expected.triples_stored
        assert len(result.simple_events) == len(expected.simple_events)


class TestChaosDegradedMode:
    @pytest.fixture(scope="class")
    def chaotic(self, sample, reports):
        pipeline = _pipeline(
            sample,
            chaos=ChaosConfig(
                fail_prob=0.25,
                # Seed chosen so this fault-rate/retry-budget combination
                # actually exhausts a few retry budgets under the
                # injector's per-stage RNG streams (the assertions below
                # need a non-empty dead-letter queue).
                seed=8,
                retry=RetryPolicy(max_retries=5, base_delay_s=0.001),
            ),
        )
        return pipeline.run(reports)

    def test_retries_recover_99_percent(self, chaotic):
        troubled = chaotic.records_recovered + chaotic.dead_letter_count
        assert troubled > 0
        assert chaotic.recovery_rate >= 0.99
        # The remainder is parked in the DLQ — nothing silently vanishes.
        assert chaotic.dead_letter_count > 0

    def test_failure_accounting_per_stage(self, chaotic):
        assert sum(chaotic.stage_failures.values()) > 0
        # Every stage the injector can hit saw failures at this rate.
        for stage in ("clean", "synopses", "events", "detectors"):
            assert chaotic.stage_failures.get(stage, 0) > 0
        # Retries never exceed failures and backoff accrued for each one.
        assert sum(chaotic.stage_retries.values()) <= sum(chaotic.stage_failures.values())
        assert chaotic.simulated_backoff_s > 0

    def test_dead_letters_carry_context(self, chaotic):
        for letter in chaotic.dead_letters:
            assert letter.stage in ("clean", "synopses", "rdf", "events", "detectors")
            assert letter.attempts == 6  # 1 initial + 5 retries
            assert letter.event_time == letter.value.t

    def test_degraded_run_still_produces_analytics(self, chaotic, baseline):
        __, expected = baseline
        # Dead-lettered reports are the only loss; the run stays useful.
        assert chaotic.reports_in == expected.reports_in
        assert chaotic.reports_kept > 0
        assert chaotic.triples_stored > 0

    def test_chaos_off_has_zero_overhead_counters(self, baseline):
        __, expected = baseline
        assert expected.stage_failures == {}
        assert expected.stage_retries == {}
        assert expected.dead_letters == []
        assert expected.recovery_rate == 1.0

    def test_targeted_stage_injection(self, sample, reports):
        pipeline = _pipeline(
            sample,
            chaos=ChaosConfig(
                fail_prob=0.5,
                stages=frozenset({"rdf"}),
                seed=9,
                retry=RetryPolicy(max_retries=4, base_delay_s=0.001),
            ),
        )
        result = pipeline.run(reports)
        assert set(result.stage_failures) == {"rdf"}
        for letter in result.dead_letters:
            assert letter.stage == "rdf"
