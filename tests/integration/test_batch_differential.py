"""Batch/per-record differential: batching must be invisible.

:meth:`MobilityPipeline.process_batch` runs a batch through the columnar
core (array-at-a-time, RDF documents landed in bulk) or, when the batch
is too small or chaos is armed, record by record — so this suite pins
the equivalence contract from every angle the contract names:

- ``deterministic_bytes()`` equality across batch sizes on both sides of
  the columnar threshold (15/16/17) and for one run that mixes sizes in
  a single pipeline, handing state back and forth between the two paths;
- decoded store contents as multisets (dictionary ids may differ between
  the paths because documents land in a different order, content not);
- content-derived metrics counters (timing histograms are exempt);
- the same equivalences under chaos injection (per-stage fault RNG
  streams make the draw sequences ordering-invariant);
- a crash mid-stream, checkpointed at batch boundaries, resumed with a
  *different* batch size — still byte-identical to an uninterrupted
  per-record run;
- complete ``SimpleEvent`` equality (every field, in per-record order —
  ``deterministic_bytes`` keeps only type/entity/t) on a dense fleet,
  where the columnar core logs proximity hits from its pair join as
  runs built only when read, instead of replaying the scalar extractor;
- complete ``ComplexEvent`` equality on an aviation stream, where the
  columnar core feeds the sector capacity detector from the batch's
  zone containment columns instead of one scalar call per record.

The workload carries >= PREFILTER_MIN_ZONES zones so the grid-backed
:class:`~repro.geo.zone_index.ZoneIndex` prefilter is exercised, not
bypassed.
"""

import itertools
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import determinism_sanitizer
from repro.cep.simple import SimpleEventConfig, SimpleEventExtractor
from repro.core.pipeline import BatchOptions, CheckpointOptions, MobilityPipeline
from repro.core.recordbatch import recordbatches
from repro.geo.bbox import BBox
from repro.geo.geodesy import haversine_m, haversine_m_arrays
from repro.geo.polygon import Polygon
from repro.geo.zone_index import PREFILTER_MIN_ZONES
from repro.model.points import Domain
from repro.model.reports import PositionReport
from repro.runtime.worker import _BatchCrashInjector
from repro.sources.generators import MaritimeTrafficGenerator
from repro.streams.chaos import ChaosConfig, InjectedCrash, RetryPolicy
from repro.streams.checkpoint import InMemoryCheckpointStore
from repro.streams.replay import ReplayLog

#: Sizes on both sides of the columnar threshold, cycled by ``"mixed"``
#: runs so one pipeline alternates between its two paths.
MIXED_SIZES = (7, 64, 3, 256, 1, 16, 15, 17, 37)

BATCH_SIZES = (1, 7, 15, 16, 17, 256, "mixed")

CHAOS = dict(fail_prob=0.2, seed=13, retry=RetryPolicy(max_retries=5, base_delay_s=0.001))


def _extra_zones(bbox: BBox) -> list[Polygon]:
    """Tile part of the world with rectangles to push past the prefilter gate."""
    zones = []
    lon_step = (bbox.max_lon - bbox.min_lon) / 3.0
    lat_step = (bbox.max_lat - bbox.min_lat) / 2.0
    for i in range(3):
        for j in range(2):
            zones.append(
                Polygon.rectangle(
                    f"tile_{i}{j}",
                    BBox(
                        bbox.min_lon + i * lon_step,
                        bbox.min_lat + j * lat_step,
                        bbox.min_lon + (i + 1) * lon_step,
                        bbox.min_lat + (j + 1) * lat_step,
                    ),
                )
            )
    return zones


@pytest.fixture(scope="module")
def sample():
    return MaritimeTrafficGenerator(seed=91).generate(n_vessels=6, max_duration_s=2400.0)


@pytest.fixture(scope="module")
def reports(sample):
    return sorted(sample.reports, key=lambda r: r.t)


@pytest.fixture(scope="module")
def zones(sample):
    zones = list(sample.world.zones) + _extra_zones(sample.world.bbox)
    assert len(zones) >= PREFILTER_MIN_ZONES
    return zones


def _pipeline(sample, zones, **kwargs):
    return MobilityPipeline(
        bbox=sample.world.bbox,
        registry=sample.registry,
        zones=zones,
        **kwargs,
    )


def _store_contents(pipeline) -> Counter:
    """Decoded triples as a multiset — insertion order and ids erased."""
    return Counter(pipeline.store.match())


def _batches(reports, size, phase=0):
    """Slices of ``size`` records; ``"mixed"`` cycles ``MIXED_SIZES`` from ``phase``."""
    sizes = (
        itertools.islice(itertools.cycle(MIXED_SIZES), phase, None)
        if size == "mixed"
        else itertools.repeat(size)
    )
    start = 0
    while start < len(reports):
        step = next(sizes)
        yield list(reports[start : start + step])
        start += step


def _run_in_batches(pipeline, reports, batch_size):
    if batch_size == "mixed":
        return pipeline.run(recordbatches(_batches(reports, "mixed")))
    return pipeline.run(reports, batch=BatchOptions(size=batch_size))


@pytest.fixture(scope="module")
def per_record(sample, reports, zones):
    pipeline = _pipeline(sample, zones)
    return pipeline, pipeline.run(reports)


@pytest.fixture(scope="module")
def per_record_chaotic(sample, reports, zones):
    pipeline = _pipeline(sample, zones, chaos=ChaosConfig(**CHAOS))
    return pipeline, pipeline.run(reports)


class TestBatchEqualsPerRecord:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_deterministic_bytes_identical(self, sample, reports, zones, per_record, batch_size):
        __, expected = per_record
        pipeline = _pipeline(sample, zones)
        actual = _run_in_batches(pipeline, reports, batch_size)
        assert actual.deterministic_bytes() == expected.deterministic_bytes()

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_store_contents_identical(self, sample, reports, zones, per_record, batch_size):
        base_pipeline, __ = per_record
        pipeline = _pipeline(sample, zones)
        _run_in_batches(pipeline, reports, batch_size)
        assert _store_contents(pipeline) == _store_contents(base_pipeline)

    def test_complex_events_identical(self, sample, reports, zones, per_record):
        __, expected = per_record
        pipeline = _pipeline(sample, zones)
        actual = pipeline.run(reports, batch=BatchOptions(size=64))
        assert [
            (e.event_type, e.entity_ids, e.t_start, e.t_end, e.attributes)
            for e in actual.complex_events
        ] == [
            (e.event_type, e.entity_ids, e.t_start, e.t_end, e.attributes)
            for e in expected.complex_events
        ]

    def test_content_counters_identical(self, sample, reports, zones, per_record):
        """Every content-derived counter agrees; only timing may differ.

        Read-path counters (``store.match_calls`` etc.) are excluded:
        other tests in this module query the shared baseline store. So
        are the ``pipeline.path.*``, ``pipeline.columnar.*``,
        ``pipeline.replay.*`` and ``pipeline.checkpoint.*`` counters,
        which record how batches were executed (and what checkpointing
        them cost), not what the records contained.
        """

        def ingest_counters(pipeline):
            return {
                k: v
                for k, v in pipeline.metrics.counters().items()
                if k not in ("store.match_calls", "store.partition_scans")
                and not k.startswith(
                    (
                        "pipeline.path.",
                        "pipeline.columnar.",
                        "pipeline.replay.",
                        "pipeline.checkpoint.",
                    )
                )
            }

        base_pipeline, __ = per_record
        pipeline = _pipeline(sample, zones)
        pipeline.run(reports, batch=BatchOptions(size=64))
        assert ingest_counters(pipeline) == ingest_counters(base_pipeline)

    def test_prefilter_active(self, sample, zones):
        """The workload actually exercises the zone index (not bypassed)."""
        pipeline = _pipeline(sample, zones)
        assert pipeline._zone_index is not None
        assert len(pipeline._zone_index) == len(zones)


class TestBatchEqualsPerRecordUnderChaos:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_deterministic_bytes_identical(
        self, sample, reports, zones, per_record_chaotic, batch_size
    ):
        __, expected = per_record_chaotic
        pipeline = _pipeline(sample, zones, chaos=ChaosConfig(**CHAOS))
        actual = _run_in_batches(pipeline, reports, batch_size)
        assert actual.deterministic_bytes() == expected.deterministic_bytes()

    def test_chaos_is_actually_firing(self, per_record_chaotic):
        __, expected = per_record_chaotic
        assert sum(expected.stage_failures.values()) > 0

    def test_recovery_accounting_identical(self, sample, reports, zones, per_record_chaotic):
        __, expected = per_record_chaotic
        pipeline = _pipeline(sample, zones, chaos=ChaosConfig(**CHAOS))
        actual = pipeline.run(reports, batch=BatchOptions(size=32))
        assert actual.records_recovered == expected.records_recovered
        assert actual.dead_letter_count == expected.dead_letter_count
        assert actual.stage_failures == expected.stage_failures
        assert actual.stage_retries == expected.stage_retries


class TestPathSelection:
    """Which path ran, and why not the fast one, is counted per batch."""

    @staticmethod
    def _path_counters(pipeline):
        return {
            k.removeprefix("pipeline.path."): v
            for k, v in pipeline.metrics.counters().items()
            if k.startswith("pipeline.path.")
        }

    def test_inert_chaos_config_engages_columnar(self, sample, reports, zones):
        """``ChaosConfig()`` can never fire a fault, so it forces nothing."""
        window = reports[:640]
        assert len(window) == 640
        pipeline = _pipeline(sample, zones, chaos=ChaosConfig())
        actual = pipeline.run(window, batch=BatchOptions(size=64))
        expected = _pipeline(sample, zones).run(window, batch=BatchOptions(size=64))
        assert actual.deterministic_digest() == expected.deterministic_digest()
        assert self._path_counters(pipeline) == {"columnar": 10}

    def test_counters_sum_to_batches_with_reasons(self, sample, reports, zones):
        sizes = [len(b) for b in _batches(reports, "mixed")]
        small = sum(1 for n in sizes if n < 16)
        plain = _pipeline(sample, zones)
        _run_in_batches(plain, reports, "mixed")
        assert self._path_counters(plain) == {
            "columnar": len(sizes) - small,
            "scalar.small_batch": small,
        }
        chaotic = _pipeline(sample, zones, chaos=ChaosConfig(**CHAOS))
        _run_in_batches(chaotic, reports, "mixed")
        assert self._path_counters(chaotic) == {"scalar.chaos": len(sizes)}

    def test_adaptive_synopses_reason(self, sample, reports, zones):
        from repro.core.config import PipelineConfig

        pipeline = _pipeline(
            sample, zones, config=PipelineConfig(adaptive_keep_rate=0.3)
        )
        pipeline.run(reports[:128], batch=BatchOptions(size=64))
        assert self._path_counters(pipeline) == {"scalar.adaptive_synopses": 2}

    def test_per_record_run_counts_no_batches(self, per_record):
        base_pipeline, __ = per_record
        assert self._path_counters(base_pipeline) == {}


class TestBatchCrashRestartDifferential:
    def _crash_and_resume(self, sample, reports, zones, batch_size, crash_after=None, **kwargs):
        store = InMemoryCheckpointStore()
        crashed = _pipeline(sample, zones, **kwargs)
        if crash_after is None:
            crash_after = len(reports) * 2 // 3
        with pytest.raises(InjectedCrash):
            crashed.run(
                recordbatches(
                    iter(_BatchCrashInjector(_batches(reports, batch_size), crash_after))
                ),
                checkpoints=CheckpointOptions(store=store, interval=200),
            )
        # The crash cost real progress: it fired past the last barrier.
        offset = store.latest().source_offset
        assert 0 < offset < crash_after
        fresh = _pipeline(sample, zones, **kwargs)
        # Resume with *different* batch boundaries: equivalence must not
        # depend on them lining up across incarnations.
        if batch_size == "mixed":
            # run(resume=True) re-batches at one size; restore by hand (as
            # a runtime worker does) to keep the suffix mixed-size too.
            fresh.restore(store.latest().states)
            result = fresh.run(
                recordbatches(
                    _batches(reports[offset:], "mixed", phase=4), start_offset=offset
                )
            )
        else:
            result = fresh.run(
                ReplayLog(reports),
                batch=BatchOptions(size=37),
                checkpoints=CheckpointOptions(store=store, resume=True),
            )
        return fresh, result

    @pytest.mark.parametrize("batch_size", (64, "mixed"))
    def test_resumed_batch_run_matches_uninterrupted_per_record(
        self, sample, reports, zones, per_record, batch_size
    ):
        base_pipeline, expected = per_record
        fresh, actual = self._crash_and_resume(sample, reports, zones, batch_size)
        assert actual.deterministic_bytes() == expected.deterministic_bytes()
        assert _store_contents(fresh) == _store_contents(base_pipeline)

    @pytest.mark.parametrize("batch_size", (64, "mixed"))
    def test_resumed_chaotic_batch_run_matches_uninterrupted_per_record(
        self, sample, reports, zones, per_record_chaotic, batch_size
    ):
        base_pipeline, expected = per_record_chaotic
        fresh, actual = self._crash_and_resume(
            sample, reports, zones, batch_size, chaos=ChaosConfig(**CHAOS)
        )
        assert actual.deterministic_bytes() == expected.deterministic_bytes()
        assert _store_contents(fresh) == _store_contents(base_pipeline)


def _replay_counters(pipeline):
    return {
        k.removeprefix("pipeline."): v
        for k, v in pipeline.metrics.counters().items()
        if k.startswith(("pipeline.columnar.", "pipeline.replay."))
    }


def _cluster(ids, rounds, lon=24.0, lat=37.0, t0=0.0):
    """Entity ``ids[k]`` steams east at 5 m/s, 100 m north of ``ids[k - 1]``,
    reporting every 10 s in the rounds ``rounds(k)`` allows — everyone is
    within the proximity radius of everyone, so what varies per record is
    only who is still *fresh*."""
    step = 50.0 / (111_194.0 * 0.8)
    return sorted(
        (
            PositionReport(
                entity_id=eid,
                t=t0 + 10.0 * r + 0.01 * k,
                lon=lon + step * r,
                lat=lat + 0.0009 * k,
                speed=5.0,
                heading=90.0,
            )
            for k, eid in enumerate(ids)
            for r in rounds(k)
        ),
        key=lambda r: r.t,
    )


_CLUSTER_WORLD = SimpleNamespace(
    world=SimpleNamespace(bbox=BBox(23.0, 36.0, 26.0, 38.0)), registry=None
)


def _radius_edge(lon, lat, radius):
    """Adjacent latitudes north of ``(lon, lat)`` at which the scalar
    distance crosses ``radius``: ``(last hit, first miss)``."""
    lo, hi = lat, lat + 0.1
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2.0
        if haversine_m(lon, lat, lon, mid) <= radius:
            lo = mid
        else:
            hi = mid
    return lo, hi


class TestDenseProximityEmission:
    """The columnar core decides proximity hits in its as-of pair join and
    logs them as :class:`~repro.cep.simple.ProximityRun`\\ s, built only
    when read.

    Everything a ``SimpleEvent`` read from the log carries — ``other``,
    ``distance_m``, position, severity — and the order of one record's
    events must equal what ``process_report`` produces, while almost no
    record replays the scalar extractor.
    """

    @pytest.fixture(scope="class")
    def dense(self, dense_maritime_sample):
        sample = dense_maritime_sample
        reports = sorted(sample.reports, key=lambda r: r.t)
        zones = list(sample.world.zones)
        pipeline = _pipeline(sample, zones)
        return sample, reports, zones, pipeline, pipeline.run(reports)

    def test_fixture_is_dense(self, dense):
        sample, reports, __, __, expected = dense
        assert len(sample.registry) >= 20
        raising = {
            (e.entity_id, e.t)
            for e in expected.simple_events
            if e.event_type == "proximity"
        }
        assert len(raising) >= 0.9 * expected.reports_clean

    @pytest.mark.parametrize("batch_size", (16, 17, 256, "mixed"))
    def test_complete_simple_events_identical(self, dense, batch_size):
        sample, reports, zones, __, expected = dense
        actual = _run_in_batches(_pipeline(sample, zones), reports, batch_size)
        assert actual.simple_events == expected.simple_events
        assert actual.deterministic_bytes() == expected.deterministic_bytes()

    @pytest.mark.parametrize("batch_size", (64, "mixed"))
    def test_resumed_run_emits_identical_events(self, dense, batch_size):
        """The crash lands mid-batch; the suffix re-batches off the grid."""
        sample, reports, zones, base_pipeline, expected = dense
        # 1390: inside a batch at both sizes, and short of the next
        # checkpoint multiple so the crash costs progress.
        fresh, actual = TestBatchCrashRestartDifferential()._crash_and_resume(
            sample, reports, zones, batch_size, crash_after=1390
        )
        assert actual.simple_events == expected.simple_events
        assert actual.deterministic_bytes() == expected.deterministic_bytes()
        assert _store_contents(fresh) == _store_contents(base_pipeline)

    def test_content_counters_and_replay_ratio(self, dense):
        sample, reports, zones, base_pipeline, __ = dense
        pipeline = _pipeline(sample, zones)
        pipeline.run(reports, batch=BatchOptions(size=256))
        assert (
            pipeline.metrics.counters()["cep.simple_events"]
            == base_pipeline.metrics.counters()["cep.simple_events"]
        )
        counters = _replay_counters(pipeline)
        assert counters["columnar.records"] == len(reports)
        # The guard must not regress to replay-everything.
        assert counters["replay.extractor"] < 0.05 * counters["columnar.records"]
        assert _replay_counters(base_pipeline) == {}

    def test_vector_kernel_rows_fall_back(self):
        """With >= 16 fresh candidates the scalar path takes distances from
        the vector kernel, so those rows replay — counted; below, they emit."""
        # Entity k falls silent after round 40 - k: every record's fresh
        # count sinks from 19 through the threshold to 0.
        reports = _cluster(
            [f"C{k:02d}" for k in range(20)], lambda k: range(40 - k)
        )
        expected = _pipeline(_CLUSTER_WORLD, ()).run(reports)
        pipeline = _pipeline(_CLUSTER_WORLD, ())
        actual = pipeline.run(reports, batch=BatchOptions(size=64))
        assert actual.simple_events == expected.simple_events
        assert actual.deterministic_bytes() == expected.deterministic_bytes()
        counters = _replay_counters(pipeline)
        fell_back = counters["replay.proximity_vector_kernel"]
        assert 0 < fell_back < counters["columnar.records"]
        assert fell_back <= counters["replay.extractor"]
        per_record = Counter(
            (e.entity_id, e.t)
            for e in expected.simple_events
            if e.event_type == "proximity"
        )
        assert max(per_record.values()) >= 16 > min(per_record.values())

    def test_new_entity_mid_batch_ranks_after_old_ones(self):
        """One record's events follow latest-map insertion order: entities
        known before the batch first (whatever their order *in* the
        batch, and whether or not they are in it), then new ones by first
        appearance."""
        old = _cluster(["Z1", "Y2", "X3"], lambda k: range(8))
        # The second batch opens with Y2 (vocabulary order != insertion
        # order), never contains X3 (still fresh), and meets B5 then A4
        # for the first time in its middle.
        late = _cluster(["Y2", "Z1", "B5", "A4"], lambda k: range(8, 14))
        late = [r for r in late if r.entity_id in ("Y2", "Z1") or r.t > 95.0]
        reports = old + late
        assert [len(old), len(late)] == [24, 20]
        expected = _pipeline(_CLUSTER_WORLD, ()).run(reports)
        actual = _pipeline(_CLUSTER_WORLD, ()).run(
            recordbatches(iter([old, late]))
        )
        assert actual.simple_events == expected.simple_events
        probe = next(r for r in reversed(late) if r.entity_id == "Z1")
        assert [
            e.attributes["other"]
            for e in actual.simple_events
            if (e.entity_id, e.t) == ("Z1", probe.t)
        ] == ["Y2", "X3", "B5", "A4"]

    def test_band_pairs_are_decided_by_the_scalar_kernel(self):
        """Two stationary pairs sit at adjacent latitudes around the radius:
        the scalar kernel says hit for one and miss for the other, and
        both vector distances lie inside the ±1e-9 band the join hands to
        the scalar kernel."""
        radius = SimpleEventConfig().proximity_radius_m
        hit_lat = _radius_edge(24.0, 36.5, radius)[0]
        miss_lat = _radius_edge(24.0, 37.5, radius)[1]
        for lat, edge in ((36.5, hit_lat), (37.5, miss_lat)):
            d = haversine_m_arrays(np.array([24.0]), np.array([lat]), 24.0, np.array([edge]))
            assert abs(d[0] - radius) <= radius * 1e-9
        assert haversine_m(24.0, 36.5, 24.0, hit_lat) <= radius
        assert haversine_m(24.0, 37.5, 24.0, miss_lat) > radius
        places = {"H1": 36.5, "H2": hit_lat, "M1": 37.5, "M2": miss_lat}
        reports = [
            PositionReport(
                entity_id=eid, t=10.0 * r + 0.01 * k, lon=24.0, lat=lat, speed=5.0, heading=0.0
            )
            for r in range(8)
            for k, (eid, lat) in enumerate(places.items())
        ]
        expected = _pipeline(_CLUSTER_WORLD, ()).run(reports)
        pipeline = _pipeline(_CLUSTER_WORLD, ())
        actual = pipeline.run(reports, batch=BatchOptions(size=32))
        assert actual.simple_events == expected.simple_events
        assert actual.deterministic_bytes() == expected.deterministic_bytes()
        raised = {e.entity_id for e in expected.simple_events if e.event_type == "proximity"}
        assert raised == {"H1", "H2"}
        counters = _replay_counters(pipeline)
        assert counters["replay.extractor"] == 0
        # Per pair: the second entity's first report, then both every round.
        assert counters["replay.proximity_band"] == 2 * (1 + 2 * 7)

    def test_columnar_run_builds_no_event_until_read(self, monkeypatch):
        reports = _cluster([f"C{k}" for k in range(6)], lambda k: range(10))
        expected = _pipeline(_CLUSTER_WORLD, ()).run(reports)
        calls = []
        build = SimpleEventExtractor._proximity_event

        def counting(report, other, distance):
            calls.append(1)
            return build(report, other, distance)

        monkeypatch.setattr(SimpleEventExtractor, "_proximity_event", staticmethod(counting))
        pipeline = _pipeline(_CLUSTER_WORLD, ())
        actual = pipeline.run(reports, batch=BatchOptions(size=64))
        assert _replay_counters(pipeline)["replay.extractor"] == 0
        assert actual.deterministic_bytes() == expected.deterministic_bytes()
        assert calls == []
        n = sum(1 for e in expected.simple_events if e.event_type == "proximity")
        assert n > 0
        assert actual.simple_events == expected.simple_events
        assert len(calls) == n

    @settings(max_examples=20, deadline=None)
    @given(
        start=st.integers(min_value=0, max_value=1500),
        length=st.integers(min_value=40, max_value=160),
        replays=st.lists(
            st.tuples(st.integers(0, 159), st.integers(0, 159)), max_size=12
        ),
        batch_size=st.integers(min_value=16, max_value=48),
    )
    @example(start=600, length=64, replays=[(0, 40), (1, 41), (2, 42)], batch_size=16)
    def test_reingested_and_out_of_order_records(
        self, dense, start, length, replays, batch_size
    ):
        """Re-ingested records are dropped by the cleaners, so an entity can
        sit in a batch's vocabulary with zero active rows."""
        sample, reports, zones, __, __ = dense
        window = list(reports[start : start + length])
        for src, dst in replays:
            window.insert(dst % (len(window) + 1), window[src % len(window)])
        expected = _pipeline(sample, zones).run(window)
        actual = _pipeline(sample, zones).run(window, batch=BatchOptions(size=batch_size))
        assert actual.simple_events == expected.simple_events
        assert actual.deterministic_bytes() == expected.deterministic_bytes()


#: Capacity windows short and the limit low enough that the aviation
#: fixture overloads a sector in most windows, two sectors in one.
_CAPACITY_CONFIG = dict(capacity_limit=1, capacity_window_s=300.0)


class TestCapacityDemandColumnar:
    """The columnar core feeds :class:`CapacityDemandDetector` from the
    batch's zone containment columns, one pass per (window run, sector).

    Window closes must land at the record whose scalar ``process`` call
    raises them, and sectors must enter the window's presence map in
    scalar order: both are visible in the complete ``ComplexEvent`` list.
    Every run is under ``determinism_sanitizer()`` (CI's "Sanitizer
    differential arm").
    """

    @pytest.fixture(scope="class")
    def aviation(self):
        from repro.core.config import PipelineConfig
        from repro.sources.generators import AviationTrafficGenerator

        sample = AviationTrafficGenerator(seed=3).generate(n_flights=6)
        reports = sorted(sample.reports, key=lambda r: r.t)[:3000]
        zones = list(sample.world.sectors)
        kwargs = dict(config=PipelineConfig(**_CAPACITY_CONFIG), domain=Domain.AVIATION)
        pipeline = _pipeline(sample, zones, **kwargs)
        with determinism_sanitizer():
            expected = pipeline.run(reports)
        return sample, reports, zones, kwargs, pipeline, expected

    @staticmethod
    def _assert_identical(actual, expected):
        assert actual.complex_events == expected.complex_events
        assert actual.deterministic_bytes() == expected.deterministic_bytes()

    def test_fixture_builds_and_fires_the_detector(self, aviation):
        __, __, __, __, pipeline, expected = aviation
        assert pipeline._capacity is not None
        overloads = [
            e for e in expected.complex_events if e.event_type == "capacity_overload"
        ]
        assert len(overloads) >= 5
        # One window closes with two overloaded sectors: their order is
        # the order the sectors entered the window's presence map.
        assert max(Counter(e.t_start for e in overloads).values()) >= 2

    @pytest.mark.parametrize("batch_size", (16, 17, 256, "mixed"))
    def test_complete_complex_events_identical(self, aviation, batch_size):
        sample, reports, zones, kwargs, __, expected = aviation
        with determinism_sanitizer():
            actual = _run_in_batches(_pipeline(sample, zones, **kwargs), reports, batch_size)
        self._assert_identical(actual, expected)

    def test_columnar_run_calls_no_scalar_process(self, aviation, monkeypatch):
        from repro.cep.detectors import CapacityDemandDetector

        sample, reports, zones, kwargs, __, expected = aviation

        def scalar_process(self, report):
            raise AssertionError("columnar batch took the scalar capacity path")

        monkeypatch.setattr(CapacityDemandDetector, "process", scalar_process)
        # 3000 = 12 * 250: every batch is columnar.
        with determinism_sanitizer():
            actual = _pipeline(sample, zones, **kwargs).run(
                reports, batch=BatchOptions(size=250)
            )
        self._assert_identical(actual, expected)

    def test_batch_straddling_a_window_boundary(self, aviation):
        sample, reports, zones, kwargs, __, expected = aviation
        window_s = _CAPACITY_CONFIG["capacity_window_s"]
        windows = [int(r.t // window_s) for r in reports]
        edge = next(i for i in range(100, len(reports)) if windows[i] != windows[i - 1])
        lo, hi = edge - 40, edge + 40
        assert windows[lo] != windows[hi - 1]
        with determinism_sanitizer():
            actual = _pipeline(sample, zones, **kwargs).run(
                recordbatches([reports[:lo], reports[lo:hi], reports[hi:]])
            )
        self._assert_identical(actual, expected)

    @pytest.mark.parametrize("batch_size", (64, "mixed"))
    def test_resume_from_checkpoint_inside_a_capacity_window(
        self, aviation, batch_size, monkeypatch
    ):
        sample, reports, zones, kwargs, __, expected = aviation
        present_at_restore = []
        restore = MobilityPipeline.restore

        def recording_restore(self, payload):
            restore(self, payload)
            present_at_restore.append(dict(self._capacity._present))

        monkeypatch.setattr(MobilityPipeline, "restore", recording_restore)
        with determinism_sanitizer():
            __, actual = TestBatchCrashRestartDifferential()._crash_and_resume(
                sample, reports, zones, batch_size, crash_after=1390, **kwargs
            )
        # The resumed state is mid-window: the detector's presence sets
        # came through the checkpoint, not from a fresh window.
        assert len(present_at_restore) == 1 and present_at_restore[0]
        self._assert_identical(actual, expected)


class TestCompiledEmitterDifferential:
    """The compiled id-level RDF emitter must be observationally invisible.

    The columnar path (``run(reports, batch=BatchOptions(size=...))``)
    assembles id triples through :class:`CompiledReportEmitter`; with
    ``compiled_rdf_emitter=False`` the same path goes through
    ``report_to_triples`` + ``add_documents``. Both ablation arms must
    produce byte-identical results and multiset-identical decoded store
    contents — on maritime and aviation (optional alt/vertical_rate
    fields) workloads alike.
    """

    def test_emitter_engaged_in_columnar_runs(self, sample, zones):
        pipeline = _pipeline(sample, zones)
        assert pipeline._emitter is not None
        assert pipeline._emitter.engaged

    def test_ablation_arm_disables_emitter(self, sample, zones):
        from repro.core.config import PipelineConfig

        pipeline = _pipeline(
            sample, zones, config=PipelineConfig(compiled_rdf_emitter=False)
        )
        assert pipeline._emitter is None

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_ablation_differential(self, sample, reports, zones, batch_size):
        from repro.core.config import PipelineConfig

        compiled = _pipeline(sample, zones)
        fallback = _pipeline(
            sample, zones, config=PipelineConfig(compiled_rdf_emitter=False)
        )
        got = _run_in_batches(compiled, reports, batch_size)
        want = _run_in_batches(fallback, reports, batch_size)
        assert got.deterministic_bytes() == want.deterministic_bytes()
        assert _store_contents(compiled) == _store_contents(fallback)

    def test_aviation_optional_fields_differential(self):
        from repro.core.config import PipelineConfig
        from repro.sources.generators import AviationTrafficGenerator

        from dataclasses import replace

        air = AviationTrafficGenerator(seed=7)
        air_sample = air.generate(n_flights=4)
        air_reports = sorted(air_sample.reports, key=lambda r: r.t)[:600]
        # The generator reports altitude but not climb rate; graft a
        # vertical_rate onto every third record so the emitter's
        # optional-field branch actually runs in this differential.
        air_reports = [
            replace(r, vertical_rate=2.5) if i % 3 == 0 else r
            for i, r in enumerate(air_reports)
        ]
        assert any(r.alt is not None for r in air_reports)
        assert any(r.vertical_rate is not None for r in air_reports)
        zones = list(air_sample.world.sectors)
        compiled = _pipeline(air_sample, zones)
        fallback = _pipeline(
            air_sample, zones, config=PipelineConfig(compiled_rdf_emitter=False)
        )
        per_record = _pipeline(air_sample, zones)
        got = compiled.run(air_reports, batch=BatchOptions(size=64))
        want = fallback.run(air_reports, batch=BatchOptions(size=64))
        base = per_record.run(air_reports)
        assert got.deterministic_bytes() == want.deterministic_bytes()
        assert got.deterministic_bytes() == base.deterministic_bytes()
        assert _store_contents(compiled) == _store_contents(fallback)
        assert _store_contents(compiled) == _store_contents(per_record)

    def test_stage_wall_accumulates_on_columnar_path(self, sample, reports, zones):
        from repro.obs import MetricsRegistry

        pipeline = _pipeline(sample, zones, metrics=MetricsRegistry(seed=5))
        pipeline.run(reports[:300], batch=BatchOptions(size=64))
        wall = pipeline.stage_wall_seconds()
        assert wall["end_to_end"] > 0
        assert wall["rdf"] > 0
        # Stage walls nest inside the end-to-end wall.
        assert (
            wall["clean"] + wall["synopses"] + wall["rdf"] + wall["detectors"]
            <= wall["end_to_end"]
        )


class TestBatchProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        start=st.integers(min_value=0, max_value=400),
        length=st.integers(min_value=0, max_value=120),
        batch_size=st.integers(min_value=1, max_value=17),
    )
    def test_any_slice_any_batch_size(self, sample, reports, zones, start, length, batch_size):
        window = reports[start : start + length]
        expected = _pipeline(sample, zones).run(window)
        actual = _pipeline(sample, zones).run(window, batch=BatchOptions(size=batch_size))
        assert actual.deterministic_bytes() == expected.deterministic_bytes()

    def test_empty_stream(self, sample, zones):
        result = _pipeline(sample, zones).run([], batch=BatchOptions(size=8))
        assert result.reports_in == 0

    def test_batch_size_must_be_positive(self, sample, reports, zones):
        with pytest.raises(ValueError):
            _pipeline(sample, zones).run(reports, batch=BatchOptions(size=0))
