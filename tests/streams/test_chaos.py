"""Chaos layer: crash/fault injection and retry with backoff."""

import random

import pytest

from repro.streams.chaos import (
    CrashInjector,
    InjectedCrash,
    RetryPolicy,
    TransientFault,
    TransientFaultInjector,
)


class TestRetryPolicy:
    def test_backoff_grows_exponentially_without_jitter(self):
        policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0, jitter=0.0, max_delay_s=10.0)
        rng = random.Random(0)
        delays = [policy.backoff_s(k, rng) for k in range(4)]
        assert delays == [0.1, 0.2, 0.4, 0.8]

    def test_backoff_capped_at_max_delay(self):
        policy = RetryPolicy(base_delay_s=0.1, multiplier=10.0, jitter=0.0, max_delay_s=0.5)
        rng = random.Random(0)
        assert policy.backoff_s(5, rng) == 0.5

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=1.0, jitter=0.5, max_delay_s=1.0)
        rng = random.Random(7)
        for __ in range(100):
            delay = policy.backoff_s(0, rng)
            assert 0.5 <= delay <= 1.0

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestCrashInjector:
    def test_crashes_after_exact_count(self):
        injector = CrashInjector(range(100), crash_after=7)
        consumed = []
        with pytest.raises(InjectedCrash):
            for item in injector:
                consumed.append(item)
        assert consumed == list(range(7))
        assert injector.delivered == 7

    def test_no_crash_when_stream_shorter(self):
        assert list(CrashInjector(range(3), crash_after=10)) == [0, 1, 2]


class TestTransientFaultInjector:
    def test_deterministic_for_seed(self):
        def fault_pattern(seed):
            injector = TransientFaultInjector(0.5, seed=seed)
            pattern = []
            for __ in range(50):
                try:
                    injector.maybe_fail("s")
                    pattern.append(False)
                except TransientFault:
                    pattern.append(True)
            return pattern

        assert fault_pattern(3) == fault_pattern(3)
        assert fault_pattern(3) != fault_pattern(4)

    def test_stage_filter(self):
        injector = TransientFaultInjector(1.0, stages={"rdf"})
        injector.maybe_fail("clean")  # never fails: not a targeted stage
        with pytest.raises(TransientFault):
            injector.maybe_fail("rdf")
