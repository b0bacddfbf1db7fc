"""Fault injection and degraded-mode execution for the streaming layer.

Three failure models, matching what surveillance-stream deployments see:

- **crashes** — :class:`CrashInjector` kills a run mid-stream (the
  checkpoint/recovery path in :mod:`repro.streams.checkpoint` is the
  counterpart that must make this survivable);
- **transient faults** — :class:`TransientFaultInjector` makes individual
  stage executions fail with a seeded probability; the
  :class:`RetryPolicy` (exponential backoff with jitter) governs how
  often they are retried;
- **poison records** — records whose processing keeps failing past the
  retry budget become a :class:`DeadLetter` in the pipeline's result
  (``PipelineResult.dead_letters``) instead of stalling or killing the
  stream.

Faults are injected at stage *entry*, before any state mutation, so a
retried attempt never observes a partially-applied stage — the same
contract a transactional worker restart gives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Collection, Iterable, Iterator


class InjectedCrash(RuntimeError):
    """A deliberate, unrecoverable crash raised by the chaos layer."""


class TransientFault(RuntimeError):
    """A retryable failure (network blip, worker hiccup, timeout)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter.

    Attempt ``k`` (0-based) backs off ``base_delay_s * multiplier**k``,
    capped at ``max_delay_s``, then scaled by a random factor in
    ``[1 - jitter, 1]`` so synchronized retry storms decorrelate.
    """

    max_retries: int = 3
    base_delay_s: float = 0.01
    multiplier: float = 2.0
    max_delay_s: float = 1.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Delay before retry number ``attempt`` (0-based)."""
        delay = min(self.max_delay_s, self.base_delay_s * self.multiplier**attempt)
        if self.jitter:
            delay *= 1.0 - self.jitter * rng.random()
        return delay


@dataclass(frozen=True, slots=True)
class DeadLetter:
    """One record that exhausted its retry budget."""

    stage: str
    value: Any
    event_time: float | None
    error: str
    attempts: int


class CrashInjector:
    """Iterable wrapper that raises :class:`InjectedCrash` mid-stream.

    Yields exactly ``crash_after`` items, then crashes — simulating a
    worker dying at a record boundary. Works over any item type (records
    or raw reports).
    """

    def __init__(self, items: Iterable[Any], crash_after: int) -> None:
        if crash_after < 0:
            raise ValueError("crash_after must be >= 0")
        self._items = items
        self.crash_after = crash_after
        self.delivered = 0

    def __iter__(self) -> Iterator[Any]:
        for item in self._items:
            if self.delivered >= self.crash_after:
                raise InjectedCrash(
                    f"injected crash after {self.delivered} records"
                )
            yield item
            self.delivered += 1


class TransientFaultInjector:
    """Seeded coin-flip fault source with one stream per stage.

    Each :meth:`maybe_fail` call raises :class:`TransientFault` with
    probability ``fail_prob`` (optionally only for the named stages).
    Every stage name draws from its own RNG stream (seeded from a stable
    hash of ``(seed, stage)``), so the i-th execution of a given stage
    sees the same draw no matter how calls to *other* stages interleave.
    That makes fault assignment invariant between record-major execution
    (stage A, B, C of record 1, then of record 2, ...) and stage-major
    micro-batch execution (stage A of every record, then stage B, ...) —
    the property the pipeline's batch/per-record differential relies on.
    Deterministic for a fixed seed and per-stage call sequence, so chaos
    tests are reproducible.
    """

    def __init__(
        self,
        fail_prob: float,
        seed: int = 0,
        stages: Collection[str] | None = None,
    ) -> None:
        if not 0.0 <= fail_prob <= 1.0:
            raise ValueError("fail_prob must be in [0, 1]")
        self.fail_prob = fail_prob
        self.stages = frozenset(stages) if stages is not None else None
        self._seed = seed
        self._rngs: dict[str, random.Random] = {}
        self.faults_injected = 0

    def _stage_rng(self, stage: str) -> random.Random:
        rng = self._rngs.get(stage)
        if rng is None:
            from repro.hashing import stable_hash

            rng = random.Random(stable_hash((self._seed, "fault", stage)))
            self._rngs[stage] = rng
        return rng

    def maybe_fail(self, stage: str) -> None:
        """Raise a :class:`TransientFault` for this stage execution, or not."""
        if self.stages is not None and stage not in self.stages:
            return
        if self._stage_rng(stage).random() < self.fail_prob:
            self.faults_injected += 1
            raise TransientFault(f"injected transient fault in stage {stage!r}")


@dataclass(frozen=True)
class ChaosConfig:
    """Degraded-mode configuration for :class:`repro.core.pipeline.MobilityPipeline`.

    Attributes:
        fail_prob: Per-stage-execution transient failure probability.
        stages: When given, faults hit only these stage names.
        seed: Seeds both the fault injector and the backoff jitter.
        retry: Backoff policy applied when a stage raises a transient fault.
    """

    fail_prob: float = 0.0
    stages: frozenset[str] | None = None
    seed: int = 0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
