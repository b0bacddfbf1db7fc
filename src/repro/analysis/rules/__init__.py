"""Rule registry."""

from __future__ import annotations

from repro.analysis.rules.base import Rule
from repro.analysis.rules.contracts import SnapshotCoverageRule
from repro.analysis.rules.determinism import (
    BuiltinHashRule,
    UnseededRngRule,
    WallClockRule,
)
from repro.analysis.rules.naming import MetricNameRule
from repro.analysis.rules.pickle_safety import PickleSafetyRule
from repro.analysis.rules.taint import (
    TransitiveNondeterminismRule,
    UnorderedIterationRule,
    WorkerGlobalRule,
)

#: Every shipped rule, in reporting order.
ALL_RULES: tuple[Rule, ...] = (
    BuiltinHashRule(),
    UnseededRngRule(),
    WallClockRule(),
    TransitiveNondeterminismRule(),
    UnorderedIterationRule(),
    SnapshotCoverageRule(),
    PickleSafetyRule(),
    WorkerGlobalRule(),
    MetricNameRule(),
)


def rule_ids() -> list[str]:
    return [rule.rule_id for rule in ALL_RULES]


__all__ = ["Rule", "ALL_RULES", "rule_ids"]
