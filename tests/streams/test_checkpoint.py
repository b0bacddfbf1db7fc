"""Checkpoint/recovery: snapshot protocol, stores, and runner resume."""

import os

import pytest

from repro.streams.chaos import CrashInjector, InjectedCrash
from repro.streams.checkpoint import (
    Checkpoint,
    FileCheckpointStore,
    InMemoryCheckpointStore,
)
from repro.streams.operators import CollectSink, KeyedProcessOperator, MapOperator
from repro.streams.records import Record, Watermark
from repro.streams.replay import ReplayLog
from repro.streams.topology import StreamRunner, Topology
from repro.streams.watermarks import BoundedOutOfOrdernessWatermarks
from repro.streams.windows import TumblingWindowAssigner, WindowedAggregateOperator


class _RunningSum(KeyedProcessOperator):
    def __init__(self):
        super().__init__(key_fn=lambda v: v[0], name="running_sum")

    def process_keyed(self, record, state):
        state["sum"] = state.get("sum", 0) + record.value[1]
        return (record.with_value((record.value[0], state["sum"])),)


class TestSnapshotProtocol:
    def test_stateless_operator_snapshot_is_none(self):
        op = MapOperator(lambda v: v)
        assert op.snapshot() is None
        op.restore(None)  # no-op
        with pytest.raises(ValueError):
            op.restore({"unexpected": 1})

    def test_keyed_state_round_trip(self):
        op = _RunningSum()
        op.process(Record(event_time=0.0, value=("a", 5)))
        op.process(Record(event_time=1.0, value=("b", 7)))
        state = op.snapshot()
        op.process(Record(event_time=2.0, value=("a", 100)))

        fresh = _RunningSum()
        fresh.restore(state)
        (out,) = fresh.process(Record(event_time=2.0, value=("a", 1)))
        assert out.value == ("a", 6)  # 5 from the snapshot, not 105

    def test_snapshot_is_not_aliased_to_live_state(self):
        op = _RunningSum()
        op.process(Record(event_time=0.0, value=("a", 1)))
        state = op.snapshot()
        op.process(Record(event_time=1.0, value=("a", 10)))
        fresh = _RunningSum()
        fresh.restore(state)
        (out,) = fresh.process(Record(event_time=2.0, value=("a", 0)))
        assert out.value == ("a", 1)

    def test_window_operator_round_trip(self):
        op = WindowedAggregateOperator(
            key_fn=lambda v: "k", assigner=TumblingWindowAssigner(10.0)
        )
        op.process(Record(event_time=1.0, value="x"))
        op.process(Record(event_time=12.0, value="y"))
        list(op.on_watermark(Watermark(10.0)))
        state = op.snapshot()

        fresh = WindowedAggregateOperator(
            key_fn=lambda v: "k", assigner=TumblingWindowAssigner(10.0)
        )
        fresh.restore(state)
        assert fresh.open_panes == 1
        # The restored watermark still classifies old records as late.
        fresh.process(Record(event_time=3.0, value="late"))
        assert fresh.late_records == 1

    def test_watermark_generator_round_trip(self):
        gen = BoundedOutOfOrdernessWatermarks(5.0)
        gen.observe(100.0)
        state = gen.snapshot()
        fresh = BoundedOutOfOrdernessWatermarks(5.0)
        fresh.restore(state)
        assert fresh.current == 95.0
        # A smaller event time does not regress the restored watermark.
        assert fresh.observe(90.0) is None

    def test_collect_sink_round_trip(self):
        sink = CollectSink()
        sink.process(Record(event_time=0.0, value="a"))
        state = sink.snapshot()
        fresh = CollectSink()
        fresh.restore(state)
        assert fresh.items == ["a"]


class TestCheckpointStores:
    def _checkpoint(self, cid, offset=0):
        return Checkpoint(checkpoint_id=cid, source_offset=offset, states={"s": cid})

    def test_in_memory_retention_and_latest(self):
        store = InMemoryCheckpointStore(retain=2)
        for cid in range(5):
            store.save(self._checkpoint(cid, offset=cid * 10))
        assert store.checkpoint_ids() == [3, 4]
        assert store.latest().source_offset == 40
        with pytest.raises(KeyError):
            store.load(0)

    def test_next_id_monotone(self):
        store = InMemoryCheckpointStore()
        assert store.next_id() == 0
        store.save(self._checkpoint(store.next_id()))
        store.save(self._checkpoint(store.next_id()))
        assert store.next_id() == 2

    def test_file_store_round_trip(self, tmp_path):
        store = FileCheckpointStore(str(tmp_path), retain=2)
        for cid in range(4):
            store.save(self._checkpoint(cid, offset=cid))
        assert store.checkpoint_ids() == [2, 3]
        # A fresh store over the same directory sees the survivors.
        reopened = FileCheckpointStore(str(tmp_path))
        assert reopened.checkpoint_ids() == [2, 3]
        assert reopened.latest().states == {"s": 3}
        assert reopened.next_id() == 4

    def test_file_store_sweeps_orphaned_tmp_at_open(self, tmp_path):
        """A crash between write and rename leaves a ``.tmp``; reopen removes it."""
        store = FileCheckpointStore(str(tmp_path))
        store.save(self._checkpoint(0))
        orphan = tmp_path / "checkpoint-1.pkl.tmp"
        orphan.write_bytes(b"half a checkpoint")
        unrelated = tmp_path / "notes.tmp"
        unrelated.write_bytes(b"not ours")

        reopened = FileCheckpointStore(str(tmp_path))
        assert not orphan.exists()
        assert unrelated.exists()
        assert reopened.checkpoint_ids() == [0]
        assert reopened.next_id() == 1
        reopened.save(self._checkpoint(1))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint-0.pkl",
            "checkpoint-1.pkl",
            "notes.tmp",
        ]

    def test_file_store_lists_directory_once(self, tmp_path, monkeypatch):
        """Ids live in memory after open: saving and asking never re-list."""
        listings = []
        real_listdir = os.listdir
        monkeypatch.setattr(
            os, "listdir", lambda path: listings.append(path) or real_listdir(path)
        )
        store = FileCheckpointStore(str(tmp_path), retain=2)
        for __ in range(5):
            store.save(self._checkpoint(store.next_id()))
        assert store.checkpoint_ids() == [3, 4]
        assert listings == [str(tmp_path)]
        assert sorted(real_listdir(tmp_path)) == ["checkpoint-3.pkl", "checkpoint-4.pkl"]

    def test_file_store_resave_same_id_keeps_one_entry(self, tmp_path):
        store = FileCheckpointStore(str(tmp_path))
        store.save(self._checkpoint(0, offset=1))
        store.save(self._checkpoint(0, offset=2))
        assert store.checkpoint_ids() == [0]
        assert store.latest().source_offset == 2

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            Checkpoint(checkpoint_id=0, source_offset=-1, states={})


def _build_topology():
    topo = Topology()
    head = topo.add_source_stage(MapOperator(lambda v: v, name="ingest"))
    win = topo.chain(
        head,
        WindowedAggregateOperator(
            key_fn=lambda v: v % 3,
            assigner=TumblingWindowAssigner(10.0),
            aggregate_fn=lambda p: (p.key, p.start, sum(p.values)),
        ),
    )
    sink = CollectSink()
    topo.chain(win, sink)
    return topo, sink


@pytest.fixture(scope="module")
def source_log():
    # Mildly out-of-order input so watermark state actually matters.
    times = [(i, float(i + (3 if i % 7 == 0 else 0))) for i in range(600)]
    return ReplayLog(Record(event_time=t, value=v) for v, t in times)


class TestRunnerRecovery:
    def test_crash_resume_outputs_identical(self, source_log):
        topo_a, sink_a = _build_topology()
        StreamRunner(topo_a, watermark_interval=25, max_out_of_orderness_s=5.0).run(
            source_log
        )

        store = InMemoryCheckpointStore()
        topo_b, __ = _build_topology()
        runner_b = StreamRunner(
            topo_b,
            watermark_interval=25,
            max_out_of_orderness_s=5.0,
            checkpoint_store=store,
            checkpoint_interval=100,
        )
        with pytest.raises(InjectedCrash):
            runner_b.run(CrashInjector(source_log, 437))
        assert store.latest().source_offset == 400

        topo_c, sink_c = _build_topology()
        runner_c = StreamRunner(topo_c, watermark_interval=25, max_out_of_orderness_s=5.0)
        runner_c.run(source_log, resume_from=store.latest())

        assert sink_c.items == sink_a.items
        assert sink_c.records == sink_a.records
        # Metric counts also line up with the uninterrupted run.
        in_a = {k: v["records_in"] for k, v in topo_a.metrics_summary().items()}
        in_c = {k: v["records_in"] for k, v in topo_c.metrics_summary().items()}
        assert in_a == in_c

    def test_resume_via_file_store_across_instances(self, source_log, tmp_path):
        topo_a, sink_a = _build_topology()
        StreamRunner(topo_a, watermark_interval=25).run(source_log)

        store = FileCheckpointStore(str(tmp_path))
        topo_b, __ = _build_topology()
        runner_b = StreamRunner(
            topo_b, watermark_interval=25, checkpoint_store=store, checkpoint_interval=50
        )
        with pytest.raises(InjectedCrash):
            runner_b.run(CrashInjector(source_log, 333))

        # Simulates a process restart: a brand-new store over the directory.
        topo_c, sink_c = _build_topology()
        StreamRunner(topo_c, watermark_interval=25).run(
            source_log, resume_from=FileCheckpointStore(str(tmp_path)).latest()
        )
        assert sink_c.items == sink_a.items

    def test_resume_from_mismatched_topology_rejected(self, source_log):
        store = InMemoryCheckpointStore()
        topo, __ = _build_topology()
        runner = StreamRunner(
            topo, watermark_interval=25, checkpoint_store=store, checkpoint_interval=100
        )
        with pytest.raises(InjectedCrash):
            runner.run(CrashInjector(source_log, 150))

        other = Topology()
        other.add_source_stage(MapOperator(lambda v: v, name="different"))
        with pytest.raises(KeyError):
            StreamRunner(other).run(source_log, resume_from=store.latest())

    def test_store_without_interval_rejected(self):
        topo, __ = _build_topology()
        with pytest.raises(ValueError):
            StreamRunner(topo, checkpoint_store=InMemoryCheckpointStore())


class TestReplayLog:
    def test_read_from_offset(self):
        log = ReplayLog.from_timed_values([(0.0, "a"), (1.0, "b"), (2.0, "c")])
        assert len(log) == 3
        assert [r.value for r in log.read(1)] == ["b", "c"]
        assert [r.value for r in log] == ["a", "b", "c"]
        assert list(log.read(3)) == []

    def test_negative_offset_rejected(self):
        log = ReplayLog([1, 2, 3])
        with pytest.raises(ValueError):
            list(log.read(-1))
