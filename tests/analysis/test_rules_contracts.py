"""C1 checkpoint-coverage shapes: component list, pickle state, pairs, suppression."""

from tests.analysis.conftest import open_rules

class TestPairCoverage:
    def test_snapshot_dropping_mutable_field(self, lint):
        result = lint(
            {
                "mod.py": """\
                class Counter:
                    def __init__(self):
                        self.count = 0
                        self.seen = {}

                    def feed(self, key):
                        self.count += 1
                        self.seen[key] = True

                    def snapshot(self):
                        return {"seen": dict(self.seen)}

                    def restore(self, state):
                        self.seen = dict(state["seen"])
                """
            }
        )
        # count is missing from both methods: one finding each.
        assert open_rules(result) == ["C1", "C1"]
        assert {f.detail for f in result.open_findings} == {"count"}

    def test_full_pair_is_clean(self, lint):
        result = lint(
            {
                "mod.py": """\
                class Counter:
                    def __init__(self):
                        self.count = 0

                    def feed(self):
                        self.count += 1

                    def snapshot(self):
                        return {"count": self.count}

                    def restore(self, state):
                        self.count = state["count"]
                """
            }
        )
        assert result.ok

    def test_config_fields_are_not_state(self, lint):
        # Assigned in __init__, never mutated after: not required.
        result = lint(
            {
                "mod.py": """\
                class Op:
                    def __init__(self, size):
                        self.size = size
                        self.buf = []

                    def feed(self, x):
                        self.buf.append(x)

                    def snapshot(self):
                        return list(self.buf)

                    def restore(self, state):
                        self.buf = list(state)
                """
            }
        )
        assert result.ok

    def test_snapshot_without_restore(self, lint):
        result = lint(
            {
                "mod.py": """\
                class Op:
                    def snapshot(self):
                        return None
                """
            }
        )
        assert open_rules(result) == ["C1"]
        assert "without restore()" in result.open_findings[0].message


_PIPE = """\
class Pipe:
{lists}

    def __init__(self, size):
        self.size = size
        self.buf = []
        self.count = 0

    def feed(self, x):
        self.buf.append(x)
        self.count += 1

    def snapshot(self):
        return {n: getattr(self, n) for n in self._STATEFUL_COMPONENTS}

    def restore(self, state):
        for n in self._STATEFUL_COMPONENTS:
            setattr(self, n, state[n])
"""


def _pipe(*lists):
    """A component-list class whose body opens with the given lines."""
    return _PIPE.replace("{lists}", "\n".join("    " + line for line in lists))


class TestComponentList:
    def test_field_in_neither_list(self, lint):
        result = lint(
            {
                "mod.py": _pipe(
                    '_STATEFUL_COMPONENTS = ("buf",)',
                    '_NOT_CHECKPOINTED = {"size": "configuration"}',
                )
            }
        )
        assert open_rules(result) == ["C1"]
        assert result.open_findings[0].detail == "count"
        assert "in neither" in result.open_findings[0].message

    def test_field_in_both_lists(self, lint):
        result = lint(
            {
                "mod.py": _pipe(
                    '_STATEFUL_COMPONENTS = ("buf", "count")',
                    '_NOT_CHECKPOINTED = {"size": "configuration", "count": "oops"}',
                )
            }
        )
        assert open_rules(result) == ["C1"]
        assert result.open_findings[0].detail == "count"
        assert "in both" in result.open_findings[0].message

    def test_config_field_needs_a_listed_reason(self, lint):
        # Even a never-mutated field must be declared; an empty reason
        # does not count as declaring it.
        result = lint(
            {
                "mod.py": _pipe(
                    '_STATEFUL_COMPONENTS = ("buf", "count")',
                    '_NOT_CHECKPOINTED = {"size": " "}',
                )
            }
        )
        assert open_rules(result) == ["C1"]
        assert result.open_findings[0].detail == "size"

    def test_complete_lists_are_clean(self, lint):
        result = lint(
            {
                "mod.py": _pipe(
                    '_STATEFUL_COMPONENTS = ("buf", "count")',
                    '_NOT_CHECKPOINTED: dict[str, str] = {"size": "configuration"}',
                )
            }
        )
        assert result.ok

    def test_suppression_on_the_component_list(self, lint):
        result = lint(
            {
                "mod.py": _pipe(
                    '# lint: allow[C1:count] fixture: transient not worth checkpointing',
                    '_STATEFUL_COMPONENTS = ("buf",)',
                    '_NOT_CHECKPOINTED = {"size": "configuration"}',
                )
            }
        )
        assert result.ok
        assert [f.rule for f in result.suppressed] == ["C1"]


class TestPickleState:
    def test_getstate_without_setstate(self, lint):
        result = lint(
            {
                "mod.py": """\
                class Log:
                    def __init__(self):
                        self._items = []

                    def add(self, x):
                        self._items.append(x)

                    def __getstate__(self):
                        return self._items
                """
            }
        )
        assert open_rules(result) == ["C1"]
        assert "__getstate__() without __setstate__()" in result.open_findings[0].message

    def test_mutated_field_neither_method_covers(self, lint):
        result = lint(
            {
                "mod.py": """\
                class Dictionary:
                    def __init__(self):
                        self._by_term = {}
                        self._by_id = []

                    def encode(self, term):
                        self._by_term[term] = len(self._by_id)
                        self._by_id.append(term)

                    def __getstate__(self):
                        return list(self._by_id)

                    def __setstate__(self, by_id):
                        self._by_id = list(by_id)
                """
            }
        )
        assert open_rules(result) == ["C1"]
        assert result.open_findings[0].detail == "_by_term"

    def test_term_dictionary_shape_is_clean(self, lint):
        # __getstate__ writes _chunks/_sealed_upto (sealing new terms);
        # __setstate__ re-establishes _by_term from the pickled ids.
        result = lint(
            {
                "mod.py": """\
                import pickle

                class Dictionary:
                    def __init__(self):
                        self._by_term = {}
                        self._by_id = []
                        self._chunks = []
                        self._sealed_upto = 0

                    def encode(self, term):
                        self._by_term[term] = len(self._by_id)
                        self._by_id.append(term)

                    def __getstate__(self):
                        if self._sealed_upto < len(self._by_id):
                            self._chunks.append(pickle.dumps(self._by_id[self._sealed_upto:]))
                            self._sealed_upto = len(self._by_id)
                        return self._chunks

                    def __setstate__(self, chunks):
                        by_id = []
                        for chunk in chunks:
                            by_id.extend(pickle.loads(chunk))
                        self._by_id = by_id
                        self._by_term = {t: i for i, t in enumerate(by_id)}
                        self._chunks = list(chunks)
                        self._sealed_upto = len(by_id)
                """
            }
        )
        assert result.ok

    def test_triple_store_shape_is_clean(self, lint):
        # __setstate__ calls __init__ and replays the log: every field
        # __init__ assigns is re-established.
        result = lint(
            {
                "mod.py": """\
                class Store:
                    def __init__(self):
                        self._spo = {}
                        self._count = 0
                        self._log = []

                    def add(self, s, p, o):
                        self._spo.setdefault(s, {}).setdefault(p, set()).add(o)
                        self._count += 1
                        self._log.extend((s, p, o))

                    def __getstate__(self):
                        return self._log

                    def __setstate__(self, log):
                        Store.__init__(self)
                        for i in range(0, len(log), 3):
                            self.add(*log[i : i + 3])
                """
            }
        )
        assert result.ok
