"""Adaptive synopses: load shedding toward a target compression ratio.

The paper's in-situ layer must keep up "at extremely high rates". A
fixed dead-reckoning threshold yields whatever compression the traffic
allows; under load spikes an operator instead wants to *fix the budget*
(keep at most X% of records) and let the error threshold float. The
adaptive generator closes that loop with a multiplicative controller:
every ``adjust_every`` records it compares the achieved keep rate inside
the window against the target and scales the threshold accordingly
(clamped to configured bounds).

This is the load-shedding extension the datAcron in-situ work points at;
benchmark E9 exercises the fixed version, and the adaptive variant is
covered by unit tests and the ablation example.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.insitu.critical import AnnotatedReport
from repro.insitu.synopses import SynopsesConfig, SynopsesGenerator
from repro.model.reports import PositionReport
from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True, slots=True)
class AdaptiveConfig:
    """Controller settings for :class:`AdaptiveSynopsesGenerator`.

    Attributes:
        target_keep_rate: Desired fraction of records kept (e.g. 0.05).
        adjust_every: Controller period, in records.
        min_threshold_m / max_threshold_m: Threshold clamp range.
        gain: Multiplicative step aggressiveness (0.5 = gentle, 2 = fast).
        max_step: Per-period threshold change is clamped to
            ``[1/max_step, max_step]`` — the keep rate is a steep function
            of the threshold near the noise scale, so unclamped steps
            oscillate.
    """

    target_keep_rate: float = 0.05
    adjust_every: int = 200
    min_threshold_m: float = 10.0
    max_threshold_m: float = 5_000.0
    gain: float = 0.5
    max_step: float = 1.4

    def __post_init__(self) -> None:
        if not (0.0 < self.target_keep_rate < 1.0):
            raise ValueError("target_keep_rate must be in (0, 1)")
        if self.adjust_every <= 0:
            raise ValueError("adjust_every must be positive")
        if self.min_threshold_m <= 0 or self.max_threshold_m <= self.min_threshold_m:
            raise ValueError("invalid threshold bounds")
        if self.gain <= 0:
            raise ValueError("gain must be positive")
        if self.max_step <= 1.0:
            raise ValueError("max_step must exceed 1")


class AdaptiveSynopsesGenerator:
    """A synopses generator whose error threshold tracks a keep-rate target.

    Exposes the same ``process``/``finish``/``compression_ratio`` surface
    as :class:`SynopsesGenerator`; critical-point keeps are unaffected —
    only the dead-reckoning threshold floats.
    """

    def __init__(
        self,
        base: SynopsesConfig | None = None,
        adaptive: AdaptiveConfig | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.base_config = base or SynopsesConfig()
        self.adaptive = adaptive or AdaptiveConfig()
        self._generator = SynopsesGenerator(self.base_config, metrics=metrics)
        self._window_seen = 0
        self._window_kept = 0
        self.threshold_history: list[float] = [self.base_config.dr_error_threshold_m]

    @property
    def current_threshold_m(self) -> float:
        """The controller's current dead-reckoning threshold."""
        return self._generator.config.dr_error_threshold_m

    @property
    def seen(self) -> int:
        return self._generator.seen

    @property
    def kept(self) -> int:
        return self._generator.kept

    @property
    def compression_ratio(self) -> float:
        return self._generator.compression_ratio

    def process(self, report: PositionReport) -> tuple[AnnotatedReport, bool]:
        """Decide one report, adjusting the threshold on period boundaries."""
        annotated, keep = self._generator.process(report)
        self._window_seen += 1
        if keep:
            self._window_kept += 1
        if self._window_seen >= self.adaptive.adjust_every:
            self._adjust()
        return (annotated, keep)

    def finish_all(self) -> list[PositionReport]:
        """Close all tracks (see :meth:`SynopsesGenerator.finish_all`)."""
        return self._generator.finish_all()

    def publish_metrics(self) -> None:
        """Flush deferred counters (see :meth:`SynopsesGenerator.publish_metrics`)."""
        self._generator.publish_metrics()

    def _adjust(self) -> None:
        achieved = self._window_kept / self._window_seen
        target = self.adaptive.target_keep_rate
        self._window_seen = 0
        self._window_kept = 0
        if achieved <= 0:
            ratio = 0.5  # keeping nothing: loosen cautiously toward target
        else:
            ratio = achieved / target
        # Keeping too much (ratio > 1) → raise the threshold; too little →
        # lower it. The exponent softens the response and the step clamp
        # prevents limit-cycle oscillation around the noise scale.
        factor = ratio ** self.adaptive.gain
        factor = min(max(factor, 1.0 / self.adaptive.max_step), self.adaptive.max_step)
        new_threshold = self.current_threshold_m * factor
        new_threshold = min(
            max(new_threshold, self.adaptive.min_threshold_m),
            self.adaptive.max_threshold_m,
        )
        self._swap_threshold(new_threshold)
        self.threshold_history.append(new_threshold)

    def _swap_threshold(self, threshold_m: float) -> None:
        """Replace the inner generator's config, preserving its state."""
        new_config = replace(self._generator.config, dr_error_threshold_m=threshold_m)
        # The generator reads the threshold from its config on every
        # decision; swapping the config object preserves per-entity state.
        self._generator.config = new_config

    def snapshot(self) -> dict:
        """Capture inner generator state plus the adaptation state."""
        return {
            "generator": self._generator.snapshot(),
            "threshold_m": self.current_threshold_m,
            "window_seen": self._window_seen,
            "window_kept": self._window_kept,
            "threshold_history": list(self.threshold_history),
        }

    def restore(self, state: dict) -> None:
        """Reinstate state captured by :meth:`snapshot`."""
        self._generator.restore(state["generator"])
        self._swap_threshold(state["threshold_m"])
        self._window_seen = state["window_seen"]
        self._window_kept = state["window_kept"]
        self.threshold_history = list(state["threshold_history"])
