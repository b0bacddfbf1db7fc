"""Crash-restart differential for the multi-process runtime.

The oracle: a run that loses a worker mid-stream — whether by an injected
chaos crash inside the worker or a hard SIGKILL from outside — and
restarts it from its latest checkpoint must produce
:meth:`RuntimeResult.deterministic_bytes` identical to an uninterrupted
run over the same stream. Recovery must be invisible in the results.
"""

import os
import signal
import threading
import time

import pytest

from repro.core.pipeline import PipelineSpec
from repro.runtime import RuntimeConfig, ShardFailedError, Supervisor
from repro.sources.generators import MaritimeTrafficGenerator
from repro.streams.checkpoint import FileCheckpointStore

N_WORKERS = 3
# Shard substream sizes for this stream at 3 shards are roughly
# [715, 234, 940]: chaos thresholds below target the victim's substream.
CRASH_SHARD, CRASH_AFTER = 1, 120
KILL_SHARD = 2


@pytest.fixture(scope="module")
def sample():
    return MaritimeTrafficGenerator(seed=77).generate(
        n_vessels=8, max_duration_s=2400.0
    )


@pytest.fixture(scope="module")
def reports(sample):
    return sorted(sample.reports, key=lambda r: r.t)


@pytest.fixture(scope="module")
def spec(sample):
    return PipelineSpec(
        bbox=sample.world.bbox,
        registry=sample.registry,
        zones=tuple(sample.world.zones),
    )


def config(**overrides) -> RuntimeConfig:
    settings = dict(n_workers=N_WORKERS, checkpoint_interval=150)
    settings.update(overrides)
    return RuntimeConfig(**settings)


@pytest.fixture(scope="module")
def uninterrupted(spec, reports):
    return Supervisor(spec, config()).run(reports)


class TestChaosCrashDifferential:
    @pytest.fixture(scope="class")
    def crashed(self, spec, reports):
        supervisor = Supervisor(
            spec, config(crash_after={CRASH_SHARD: CRASH_AFTER})
        )
        return supervisor, supervisor.run(reports)

    def test_crash_actually_happened(self, crashed, reports):
        supervisor, result = crashed
        assert result.restarts_total == 1
        by_shard = {s.shard_id: s for s in result.shards}
        assert by_shard[CRASH_SHARD].restarts == 1
        # The victim shard had enough records to reach the trigger, and
        # checkpoints were behind it — real progress was lost and replayed.
        assert by_shard[CRASH_SHARD].records_routed > CRASH_AFTER

    def test_recovery_is_byte_identical(self, uninterrupted, crashed):
        __, result = crashed
        assert result.deterministic_bytes() == uninterrupted.deterministic_bytes()
        assert result.deterministic_digest() == uninterrupted.deterministic_digest()

    def test_restart_lands_in_obs(self, crashed):
        supervisor, __ = crashed
        counters = supervisor.metrics.as_dict()["counters"]
        assert counters[f"runtime.shard{CRASH_SHARD}.restarts"] == 1

    def test_no_records_lost_or_duplicated(self, crashed, reports):
        __, result = crashed
        assert result.reports_in == len(reports)
        assert result.dead_letter_count == 0


class TestHardKillDifferential:
    @pytest.fixture(scope="class")
    def killed(self, spec, reports):
        # service_time_s slows the victim enough that the kill lands
        # mid-stream (the shard alone takes ~2s of service waits).
        supervisor = Supervisor(spec, config(service_time_s=0.002))

        def assassinate():
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                handle = supervisor.pool.handles.get(KILL_SHARD)
                if handle is not None and handle.is_alive():
                    time.sleep(0.5)
                    live = supervisor.pool.handles.get(KILL_SHARD)
                    if live is not None and live.is_alive():
                        os.kill(live.process.pid, signal.SIGKILL)
                    return
                time.sleep(0.01)

        assassin = threading.Thread(target=assassinate, daemon=True)
        assassin.start()
        result = supervisor.run(reports)
        assassin.join(timeout=30.0)
        return supervisor, result

    def test_kill_was_recovered(self, killed):
        __, result = killed
        assert result.restarts_total == 1
        by_shard = {s.shard_id: s for s in result.shards}
        assert by_shard[KILL_SHARD].restarts == 1

    def test_recovery_is_byte_identical(self, uninterrupted, killed):
        __, result = killed
        assert result.deterministic_bytes() == uninterrupted.deterministic_bytes()


class TestRestartBudget:
    def test_exhausted_budget_raises(self, spec, reports):
        supervisor = Supervisor(
            spec,
            config(
                crash_after={CRASH_SHARD: CRASH_AFTER}, max_restarts_per_shard=0
            ),
        )
        with pytest.raises(ShardFailedError, match=f"shard {CRASH_SHARD}"):
            supervisor.run(reports)


class TestCorruptCheckpointFallback:
    """A damaged newest checkpoint costs replay, never correctness.

    Shard 0 (the ~715-record substream) crashes with several checkpoints
    behind it; before the supervisor restarts it, its newest checkpoint
    file is damaged on disk.
    """

    VICTIM, VICTIM_CRASH_AFTER = 0, 500

    def test_restart_resumes_from_previous_checkpoint(
        self, spec, reports, uninterrupted, damage_file
    ):
        supervisor = Supervisor(
            spec,
            config(
                batch_size=64,
                crash_after={self.VICTIM: self.VICTIM_CRASH_AFTER},
            ),
        )
        damaged = []
        restart = supervisor.pool.restart

        def damage_then_restart(dead):
            # The victim is dead here, so its directory is quiescent.
            store = FileCheckpointStore(dead.spec.checkpoint_dir)
            ids = store.checkpoint_ids()
            assert len(ids) >= 2
            damage_file(store._path(ids[-1]))
            damaged.append(dead.shard_id)
            return restart(dead)

        supervisor.pool.restart = damage_then_restart
        result = supervisor.run(reports)

        assert damaged == [self.VICTIM]
        assert result.restarts_total == 1
        assert result.deterministic_digest() == uninterrupted.deterministic_digest()
        counters = supervisor.metrics.as_dict()["counters"]
        assert {
            name: value
            for name, value in counters.items()
            if name.endswith("pipeline.checkpoint.corrupt_skipped")
        } == {
            "pipeline.checkpoint.corrupt_skipped": 1,
            f"worker{self.VICTIM}.pipeline.checkpoint.corrupt_skipped": 1,
        }


class TestResumeAcrossRuns:
    def test_second_supervisor_continues_a_run_that_died(
        self, spec, reports, uninterrupted, tmp_path
    ):
        """``resume=True`` on a kept directory: no record fed twice.

        The finished shards resume from their last checkpoint too, so
        every feeder has to skip a prefix its own log never admitted.
        """
        root = str(tmp_path)
        with pytest.raises(ShardFailedError):
            Supervisor(
                spec,
                config(
                    batch_size=64,
                    checkpoint_dir=root,
                    crash_after={0: 500},
                    max_restarts_per_shard=0,
                ),
            ).run(reports)
        result = Supervisor(
            spec, config(batch_size=64, checkpoint_dir=root, resume=True)
        ).run(reports)
        assert result.reports_in == len(reports)
        assert result.deterministic_digest() == uninterrupted.deterministic_digest()
