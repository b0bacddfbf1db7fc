"""The linter self-hosts: src/ is clean, and mutations are caught.

The mutation tests are the proof the self-lint result is meaningful:
they re-introduce the exact defect classes the rules exist for into
copies of real modules and assert the run turns red.
"""

from pathlib import Path

from repro.analysis import analyze_paths
from repro.analysis.cli import main

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def test_src_tree_is_clean():
    result = analyze_paths([str(REPO_SRC)])
    assert result.errors == []
    assert result.open_findings == [], "\n".join(
        f"{f.located()}: [{f.rule}] {f.message}" for f in result.open_findings
    )
    assert result.ok


def test_every_suppression_in_src_carries_a_reason():
    result = analyze_paths([str(REPO_SRC)])
    for finding in result.suppressed + result.allowlisted:
        assert finding.reason.strip(), finding


def _copy_tree(tmp_path, rel_sources):
    for rel in rel_sources:
        dest = tmp_path / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text((REPO_SRC / rel).read_text())
    return tmp_path


class TestMutations:
    def _assert_c1_names(self, root, field):
        assert main([str(root)]) == 1
        result = analyze_paths([str(root)])
        assert any(
            f.rule == "C1" and f.detail == field for f in result.open_findings
        ), result.open_findings

    def _mutate(self, target, old, new):
        mutated = target.read_text().replace(old, new, 1)
        assert mutated != target.read_text(), "mutation site moved; update test"
        target.write_text(mutated)

    def test_dropping_a_pipeline_component_turns_the_run_red(self, tmp_path):
        root = _copy_tree(tmp_path, ["repro/core/pipeline.py"])
        self._mutate(
            root / "repro/core/pipeline.py",
            '_STATEFUL_COMPONENTS: tuple[str, ...] = (\n        "_dedup",\n',
            "_STATEFUL_COMPONENTS: tuple[str, ...] = (\n",
        )
        self._assert_c1_names(root, "_dedup")

    def test_dropping_a_setstate_rebuild_turns_the_run_red(self, tmp_path):
        root = _copy_tree(tmp_path, ["repro/store/dictionary.py"])
        self._mutate(
            root / "repro/store/dictionary.py",
            "        self._by_term = {term: term_id for term_id, term in enumerate(by_id)}\n",
            "",
        )
        self._assert_c1_names(root, "_by_term")

    def test_unmutated_copies_stay_green(self, tmp_path):
        root = _copy_tree(
            tmp_path, ["repro/core/pipeline.py", "repro/store/dictionary.py"]
        )
        assert main([str(root)]) == 0

    def test_introducing_builtin_hash_turns_the_run_red(self, tmp_path):
        root = _copy_tree(tmp_path, ["repro/streams/checkpoint.py"])
        target = root / "repro/streams/checkpoint.py"
        target.write_text(
            target.read_text() + "\n\ndef _bucket(key):\n    return hash(key) % 8\n"
        )
        assert main([str(root)]) == 1
        result = analyze_paths([str(root)])
        assert [f.rule for f in result.open_findings] == ["D1"]

    def test_introducing_wall_clock_read_turns_the_run_red(self, tmp_path):
        root = _copy_tree(tmp_path, ["repro/streams/checkpoint.py"])
        target = root / "repro/streams/checkpoint.py"
        target.write_text(
            target.read_text()
            + "\n\nimport time\n\ndef _stamp():\n    return time.time()\n"
        )
        assert main([str(root)]) == 1
        result = analyze_paths([str(root)])
        assert [f.rule for f in result.open_findings] == ["D3"]

    def test_transitive_clock_read_turns_the_run_red(self, tmp_path):
        """D4: the clock is two helpers deep — D3 sees only the bottom frame."""
        root = _copy_tree(tmp_path, ["repro/streams/checkpoint.py"])
        target = root / "repro/streams/checkpoint.py"
        target.write_text(
            target.read_text()
            + "\n\nimport time\n"
            "\n"
            "def _read_clock():\n"
            "    return time.time()\n"
            "\n"
            "def _indirect_stamp():\n"
            "    return _read_clock()\n"
        )
        assert main([str(root)]) == 1
        result = analyze_paths([str(root)])
        d4 = [f for f in result.open_findings if f.rule == "D4"]
        assert len(d4) == 1
        assert d4[0].detail == "_read_clock->time.time"
        assert "_indirect_stamp → _read_clock" in d4[0].message

    def test_set_iterated_into_snapshot_turns_the_run_red(self, tmp_path):
        root = _copy_tree(tmp_path, ["repro/streams/checkpoint.py"])
        target = root / "repro/streams/checkpoint.py"
        target.write_text(
            target.read_text()
            + "\n\nclass _MutatedOp:\n"
            "    def __init__(self):\n"
            "        self._seen = set()\n"
            "\n"
            "    def snapshot(self):\n"
            '        return {"seen": [s for s in self._seen]}\n'
            "\n"
            "    def restore(self, state):\n"
            '        self._seen = set(state["seen"])\n'
        )
        assert main([str(root)]) == 1
        result = analyze_paths([str(root)])
        d5 = [f for f in result.open_findings if f.rule == "D5"]
        assert len(d5) == 1
        assert d5[0].detail == "self._seen"

    def test_worker_reachable_global_turns_the_run_red(self, tmp_path):
        root = _copy_tree(tmp_path, ["repro/streams/checkpoint.py"])
        target = root / "repro/streams/checkpoint.py"
        target.write_text(
            target.read_text()
            + "\n\n_MUTATION_CACHE: dict = {}\n"
            "\n"
            "def worker_main(spec):\n"
            "    _remember(spec)\n"
            "\n"
            "def _remember(spec):\n"
            '    _MUTATION_CACHE["spec"] = spec\n'
        )
        assert main([str(root)]) == 1
        result = analyze_paths([str(root)])
        p2 = [f for f in result.open_findings if f.rule == "P2"]
        assert len(p2) == 1
        assert p2[0].detail == "_MUTATION_CACHE"
        assert "worker_main → _remember" in p2[0].message
