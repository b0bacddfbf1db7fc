"""Hierarchical span tracing: nesting, ordering, bounded buffers."""

import pickle

import pytest

from repro.obs import MetricsRegistry, Tracer
from repro.obs.clock import monotonic


class TestNesting:
    def test_parent_child_links_and_depth(self):
        t = Tracer()
        with t.span("root"):
            with t.span("child"):
                with t.span("grandchild"):
                    pass
        by_name = {s.name: s for s in t.spans}
        root, child, grand = by_name["root"], by_name["child"], by_name["grandchild"]
        assert root.parent_id is None and root.depth == 0
        assert child.parent_id == root.span_id and child.depth == 1
        assert grand.parent_id == child.span_id and grand.depth == 2

    def test_completion_order_children_before_parents(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
        assert [s.name for s in t.spans] == ["inner", "outer"]

    def test_siblings_share_parent(self):
        t = Tracer()
        with t.span("root") as root:
            with t.span("a"):
                pass
            with t.span("b"):
                pass
        children = t.children_of(root.span_id)
        assert [s.name for s in children] == ["a", "b"]
        assert all(s.depth == 1 for s in children)

    def test_roots(self):
        t = Tracer()
        with t.span("first"):
            with t.span("nested"):
                pass
        with t.span("second"):
            pass
        assert [s.name for s in t.roots()] == ["first", "second"]

    def test_span_ids_are_unique_and_ordered(self):
        t = Tracer()
        for _ in range(5):
            with t.span("op"):
                pass
        ids = [s.span_id for s in t.spans]
        assert ids == sorted(ids) and len(set(ids)) == 5


class TestSpanData:
    def test_duration_is_positive_and_ms_property(self):
        t = Tracer()
        with t.span("timed"):
            sum(range(1000))
        (span,) = t.spans
        assert span.duration_s > 0
        assert span.duration_ms == pytest.approx(span.duration_s * 1000.0)

    def test_start_offsets_increase(self):
        t = Tracer()
        with t.span("a"):
            pass
        with t.span("b"):
            pass
        a, b = t.spans
        assert b.start_s >= a.start_s >= 0.0

    def test_add_records(self):
        t = Tracer()
        with t.span("batch", records=2) as span:
            span.add_records(3)
        (record,) = t.spans
        assert record.records == 5


class TestBounds:
    def test_overflow_is_counted_not_silent(self):
        t = Tracer(max_spans=3)
        for _ in range(10):
            with t.span("op"):
                pass
        assert len(t.spans) == 3
        assert t.dropped == 7

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            Tracer(max_spans=0)

    def test_reset_clears_everything(self):
        t = Tracer(max_spans=2)
        for _ in range(5):
            with t.span("op"):
                pass
        t.reset()
        assert t.spans == () and t.dropped == 0
        with t.span("fresh"):
            pass
        assert t.spans[0].span_id == 0


class TestRegistryIntegration:
    def test_registry_span_delegates_to_tracer(self):
        r = MetricsRegistry()
        with r.span("outer"):
            with r.span("inner"):
                pass
        assert [s.name for s in r.spans] == ["inner", "outer"]
        assert r.spans == r.tracer.spans

    def test_spans_do_not_touch_histograms(self):
        # Stage latencies are recorded explicitly; spans only trace.
        r = MetricsRegistry()
        with r.span("pipeline.clean"):
            pass
        assert list(r.histogram_names()) == []


class TestPickling:
    """A tracer's epoch is a clock reading: it is not part of its state."""

    @pytest.mark.parametrize("enabled", [False, True])
    def test_equal_registries_pickle_identically(self, enabled):
        first = pickle.dumps(MetricsRegistry(enabled=enabled))
        assert pickle.dumps(MetricsRegistry(enabled=enabled)) == first

    def test_restored_tracer_measures_on_the_restoring_clock(self):
        tracer = Tracer()
        with tracer.span("before"):
            pass
        # As if written by a process whose clock reads a day ahead.
        tracer._epoch = monotonic() + 86_400.0
        restored_at = monotonic()
        restored = pickle.loads(pickle.dumps(tracer))
        with restored.span("after"):
            pass
        before, after = restored.spans
        assert before == tracer.spans[0]
        assert 0.0 <= after.start_s <= monotonic() - restored_at
