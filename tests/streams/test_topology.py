"""Topology construction, execution and metrics."""

import pytest

from repro.obs import Counter, LatencyHistogram
from repro.streams.operators import CollectSink, FilterOperator, MapOperator
from repro.streams.records import Record
from repro.streams.topology import StreamRunner, Topology
from repro.streams.windows import TumblingWindowAssigner, WindowedAggregateOperator


class TestTopology:
    def test_linear_chain(self):
        topo = Topology()
        head = topo.add_source_stage(MapOperator(lambda x: x + 1))
        sink = CollectSink()
        topo.chain(head, sink)
        StreamRunner(topo).run_values([(0, 1), (1, 2)])
        assert sink.items == [2, 3]

    def test_branching_fanout(self):
        topo = Topology()
        head = topo.add_source_stage(MapOperator(lambda x: x))
        evens, odds = CollectSink("evens"), CollectSink("odds")
        even_stage = topo.chain(head, FilterOperator(lambda x: x % 2 == 0))
        odd_stage = topo.chain(head, FilterOperator(lambda x: x % 2 == 1))
        topo.chain(even_stage, evens)
        topo.chain(odd_stage, odds)
        StreamRunner(topo).run_values([(i, i) for i in range(6)])
        assert evens.items == [0, 2, 4]
        assert odds.items == [1, 3, 5]

    def test_windowed_stage_with_watermarks(self):
        topo = Topology()
        window = WindowedAggregateOperator(
            key_fn=lambda v: "k",
            assigner=TumblingWindowAssigner(10.0),
            aggregate_fn=lambda pane: sum(pane.values),
        )
        head = topo.add_source_stage(window)
        sink = CollectSink()
        topo.chain(head, sink)
        runner = StreamRunner(topo, watermark_interval=1)
        runner.run_values([(1, 1), (2, 2), (11, 3), (25, 4)])
        assert sink.items == [3, 3, 4]

    def test_metrics_counts(self):
        topo = Topology()
        head = topo.add_source_stage(FilterOperator(lambda x: x > 0, name="positive"))
        topo.chain(head, CollectSink())
        runner = StreamRunner(topo)
        runner.run_values([(0, -1), (1, 2), (2, 3)])
        summary = topo.metrics_summary()
        assert summary["positive"]["records_in"] == 3
        assert summary["positive"]["records_out"] == 2

    def test_duplicate_names_disambiguated(self):
        topo = Topology()
        a = topo.add_source_stage(MapOperator(lambda x: x, name="m"))
        topo.chain(a, MapOperator(lambda x: x, name="m"))
        summary = topo.metrics_summary()
        assert set(summary) == {"m", "m#2"}

    def test_latency_tracking(self):
        topo = Topology()
        head = topo.add_source_stage(MapOperator(lambda x: x))
        topo.chain(head, CollectSink())
        runner = StreamRunner(topo, track_latency=True)
        runner.run_values([(i, i) for i in range(50)])
        assert runner.end_to_end_latency.count == 50
        assert runner.end_to_end_latency.percentile_ms(95) >= 0.0

    def test_invalid_watermark_interval(self):
        with pytest.raises(ValueError):
            StreamRunner(Topology(), watermark_interval=0)


class TestSortedByTime:
    def test_replay_helper_sorts(self):
        from repro.streams.topology import sorted_by_time

        records = [Record(event_time=t, value=t) for t in (3.0, 1.0, 2.0)]
        assert [r.event_time for r in sorted_by_time(records)] == [1.0, 2.0, 3.0]


class TestMetricPrimitives:
    def test_counter_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(5)
        assert c.value == 6
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_latency_histogram_percentiles(self):
        h = LatencyHistogram()
        for ms in range(1, 101):
            h.record(ms / 1000.0)
        assert h.percentile_ms(50) == pytest.approx(50.5, rel=0.05)
        assert h.percentile_ms(99) == pytest.approx(99.0, rel=0.05)
        assert h.mean_ms() == pytest.approx(50.5, rel=0.05)

    def test_histogram_empty(self):
        h = LatencyHistogram()
        assert h.percentile_ms(95) == 0.0
        assert h.summary()["count"] == 0

    def test_histogram_reservoir_bounds_memory(self):
        h = LatencyHistogram(max_samples=100)
        for i in range(1000):
            h.record(0.001)
        assert h.count == 1000
        assert len(h._samples) == 100
