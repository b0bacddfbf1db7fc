"""The benchmark's churn workload never needs the position column's fallback.

``serve_churn`` replays reads beside ingest writes against a warmed
4-shard runtime. Every position node the pipeline emits has one lon, one
lat and one time, so every spatio-temporal read is answered from the
column: ``query.fallback.position_read`` must stay at zero. The replay
here is the benchmark's own request sequence (``bench.serve``), in
process, ``bypass_cache`` so every read executes.
"""

from __future__ import annotations

import pytest

from bench import serve
from bench.inputs import generate

OPERATIONS = 600


@pytest.mark.slow
@pytest.mark.parametrize("seed", [101, 202])
def test_churn_replay_reads_every_position_from_the_column(seed):
    stream = generate("serve_churn", seed)
    warm, held_back = serve.split("churn", stream)
    runtime = serve.build_runtime(stream.spec, warm, enabled=True)
    requests = serve.request_stream("churn", seed, stream, sorted({r.entity_id for r in warm}))
    writes = iter(serve.write_chunks(held_back))
    ranges = 0
    for index in range(1, OPERATIONS + 1):
        if index % serve.WRITE_EVERY == 0:
            runtime.ingest(next(writes))
            continue
        endpoint, params = next(requests)
        assert runtime.handle(endpoint, params, bypass_cache=True).ok
        ranges += endpoint == "range"
    assert ranges > 0
    assert runtime.metrics.counters().get("query.fallback.position_read", 0) == 0
    assert all(shard.executor._positions.size for shard in runtime.shards)
