"""Engine behavior: suppression policing, allowlists, triage buckets."""

import pytest

from repro.analysis import AllowEntry, AnalysisConfig
from repro.analysis.rules import rule_ids

from tests.analysis.conftest import open_rules


class TestSuppressionPolicing:
    def test_reasonless_suppression_is_inert_and_flagged(self, lint):
        result = lint(
            {"mod.py": "def f(x):\n    return hash(x)  # lint: allow[D1]\n"}
        )
        # The D1 stays open AND the bare allow is an S1.
        assert open_rules(result) == ["D1", "S1"]
        assert not result.suppressed

    def test_unused_suppression_is_flagged(self, lint):
        result = lint(
            {
                "mod.py": (
                    "# lint: allow[D1] stale: the hash call below was removed\n"
                    "def f(x):\n    return x\n"
                )
            }
        )
        assert open_rules(result) == ["S2"]
        assert "matches no finding" in result.open_findings[0].message

    def test_unused_suppression_for_inactive_rule_not_flagged(self, lint):
        # Running only D3 must not complain about a D1 allow that the
        # skipped rule would have consumed.
        from repro.analysis.rules import ALL_RULES

        d3_only = [r for r in ALL_RULES if r.rule_id == "D3"]
        result = lint(
            {
                "mod.py": (
                    "def f(x):\n"
                    "    return hash(x)  # lint: allow[D1] consumed when D1 runs\n"
                )
            },
            rules=d3_only,
        )
        assert result.ok

    def test_detail_scoped_suppression_matches_only_that_detail(self, lint):
        result = lint(
            {
                "mod.py": (
                    "import time\n\n"
                    "def f():\n"
                    "    # lint: allow[D3:time.monotonic] fixture detail scoping\n"
                    "    return time.monotonic(), time.time()\n"
                )
            }
        )
        # time.monotonic suppressed by detail; time.time stays open.
        assert open_rules(result) == ["D3"]
        assert result.open_findings[0].detail == "time.time"
        assert [f.detail for f in result.suppressed] == ["time.monotonic"]


class TestAllowlists:
    def test_allowlist_entry_requires_reason(self):
        with pytest.raises(ValueError, match="reason"):
            AllowEntry(pattern="repro/obs/*", reason="   ")

    def test_allowlisted_findings_keep_their_reason(self, lint):
        config = AnalysisConfig(
            allowlists={
                "D1": (
                    AllowEntry(pattern="legacy/*", reason="fixture: frozen module"),
                )
            }
        )
        result = lint(
            {
                "legacy/mod.py": "def f(x):\n    return hash(x)\n",
                "fresh/mod.py": "def g(x):\n    return hash(x)\n",
            },
            config=config,
        )
        assert [f.path for f in result.open_findings] == ["fresh/mod.py"]
        assert [f.path for f in result.allowlisted] == ["legacy/mod.py"]
        assert result.allowlisted[0].reason == "fixture: frozen module"


class TestEngineBasics:
    def test_syntax_error_is_reported_not_fatal(self, lint):
        result = lint(
            {
                "bad.py": "def broken(:\n",
                "good.py": "def f(x):\n    return hash(x)\n",
            }
        )
        assert len(result.errors) == 1
        assert "bad.py" in result.errors[0]
        assert open_rules(result) == ["D1"]
        assert not result.ok

    def test_findings_sorted_and_deterministic(self, lint):
        files = {
            "b.py": "def f(x):\n    return hash(x)\n",
            "a.py": "import time\n\ndef g():\n    return time.time(), hash(1)\n",
        }
        first = lint(files)
        keys = [(f.path, f.line, f.rule) for f in first.open_findings]
        assert keys == sorted(keys)
        assert [f.rule for f in first.open_findings] == ["D1", "D3", "D1"]

    def test_rule_ids_cover_documented_set(self):
        assert set(rule_ids()) == {
            "D1", "D2", "D3", "D4", "D5", "C1", "P1", "P2", "O1",
        }
