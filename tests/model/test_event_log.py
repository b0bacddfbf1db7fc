"""``SimpleEventLog``: a chunked, append-only sequence equal to a plain list.

A log's chunks are lists of built events or :class:`ProximityRun`\\ s, whose
rows are built only when read. The hypothesis arm builds random chunk
sequences and checks every read — ``len``, iteration, indexing (negative
too), slicing, ``keys(start)``, ``==``, a pickle round trip — against a
``list`` oracle whose proximity rows are built independently of the run.
The read-cost arm pins that reading the tail of a log builds only the
tail, and reading its keys builds nothing.

Runs under ``determinism_sanitizer()`` (CI's "Sanitizer differential arm").
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import determinism_sanitizer
from repro.cep.simple import ProximityRun, SimpleEventExtractor
from repro.geo.geodesy import haversine_m
from repro.model.events import EventSeverity, SimpleEvent, SimpleEventLog
from repro.model.reports import PositionReport


def _report(k: int) -> PositionReport:
    return PositionReport(
        entity_id=f"V{k % 7}", t=10.0 * k, lon=24.0 + 0.001 * k, lat=37.0 + 0.0007 * (k % 5)
    )


def _oracle_row(subject: PositionReport, other: PositionReport) -> SimpleEvent:
    return SimpleEvent(
        "proximity",
        subject.entity_id,
        subject.t,
        subject.lon,
        subject.lat,
        EventSeverity.ADVISORY,
        {
            "other": other.entity_id,
            "distance_m": haversine_m(subject.lon, subject.lat, other.lon, other.lat),
        },
    )


def _built(k: int) -> SimpleEvent:
    r = _report(k)
    return SimpleEvent(("stop_begin", "zone_entry", "gap_end")[k % 3], r.entity_id, r.t, r.lon, r.lat)


#: A chunk: ``("list", [k, ...])`` or ``("run", [(subject k, other k), ...])``.
chunks = st.lists(
    st.one_of(
        st.tuples(st.just("list"), st.lists(st.integers(0, 50), max_size=4)),
        st.tuples(
            st.just("run"),
            st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=5),
        ),
    ),
    max_size=8,
)


def _build(spec) -> tuple[SimpleEventLog, list[SimpleEvent]]:
    log, oracle = SimpleEventLog(), []
    for kind, items in spec:
        if kind == "list":
            events = [_built(k) for k in items]
            log.extend(events)
            oracle.extend(events)
        else:
            subjects = [_report(a) for a, __ in items]
            others = [_report(b) for __, b in items]
            log.append_run(ProximityRun(subjects, others))
            oracle.extend(map(_oracle_row, subjects, others))
    return log, oracle


def _keys(events):
    return [(e.event_type, e.entity_id, e.t) for e in events]


@settings(max_examples=200, deadline=None)
@given(spec=chunks, data=st.data())
def test_log_reads_like_a_list(spec, data):
    log, oracle = _build(spec)
    n = len(oracle)
    index = data.draw(st.integers(-n, n - 1)) if n else None
    cut = data.draw(st.slices(n + 2))
    start = data.draw(st.integers(0, n + 2))
    with determinism_sanitizer():
        assert len(log) == n
        assert list(log) == oracle
        if index is not None:
            assert log[index] == oracle[index]
        assert log[cut] == oracle[cut]
        assert list(log.keys(start)) == _keys(oracle[start:])
        assert log == oracle and oracle == log and log == _build(spec)[0]
        restored = pickle.loads(pickle.dumps(log, protocol=pickle.HIGHEST_PROTOCOL))
    assert restored == oracle
    # A restored log keeps growing like the original.
    tail = [_built(1), _built(2)]
    restored.extend(tail)
    assert list(restored) == oracle + tail


def test_out_of_range_index_raises():
    log, __ = _build([("run", [(1, 2)]), ("list", [3])])
    for index in (2, -3):
        with pytest.raises(IndexError):
            log[index]


def test_unequal_logs_and_other_types():
    log, oracle = _build([("run", [(1, 2), (3, 4)])])
    assert log != oracle[:1]
    assert log != oracle[::-1]
    assert log != tuple(oracle)


def test_empty_runs_and_lists_add_no_chunk():
    log = SimpleEventLog()
    log.extend([])
    log.append_run(ProximityRun([], []))
    assert len(log) == 0 and list(log) == [] and log._chunks == []


class TestReadCost:
    """Reading from offset ``N - k`` builds at most ``k`` rows; keys build none."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        build = SimpleEventExtractor._proximity_event

        def counting(report, other, distance):
            calls.append(1)
            return build(report, other, distance)

        monkeypatch.setattr(SimpleEventExtractor, "_proximity_event", staticmethod(counting))
        return calls

    def _log(self, runs=20, per_run=50):
        log = SimpleEventLog()
        for r in range(runs):
            pairs = [(r * per_run + i, r * per_run + i + 1) for i in range(per_run)]
            log.append_run(
                ProximityRun([_report(a) for a, __ in pairs], [_report(b) for __, b in pairs])
            )
            log.extend([_built(r)])
        return log

    @pytest.mark.parametrize("k", (0, 1, 37, 51, 400))
    def test_tail_slice_builds_only_the_tail(self, built, k):
        log = self._log()
        n = len(log)
        assert len(log[n - k :]) == k
        assert len(built) <= k

    def test_keys_build_nothing(self, built):
        log = self._log()
        assert len(list(log.keys(len(log) - 120))) == 120
        assert sum(1 for __ in log.keys()) == len(log)
        assert built == []
