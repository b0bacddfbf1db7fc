"""The traced run: one lap through every layer, over the workload's own input.

End-to-end numbers say how fast a workload is; this says where its time
goes. The benchmark calls each layer's public functions itself, on the
data the workload generated, inside bench-side spans — source → in-situ
→ RDF → store → detectors, then query, forecast, serving and the
multi-process runtime over the state that stream leaves behind. Times
come from those spans; counts come from the counters the program
already publishes (``stage_wall_seconds()``, ``ExecutionReport``,
``metrics.as_dict()``, ``GET /stats``). Every workload runs the same
lap, so one layer can be read across workloads side by side; what
differs is the input, the pipeline mode (batch or per record) and the
request mix.

The pipeline's detector stage is one fused walk with no public function
of its own, so two views of it are reported: ``cep.*_s`` time the scalar
detectors it replays flagged records through (an upper bound: the walk
skips every record its guards clear), and
``core.pipeline.stage_detectors_s`` is the program's own clock around
the walk. ``core.pipeline.glue_share`` is what neither the isolated
kernels nor that clock account for.
"""

from __future__ import annotations

import asyncio
import dataclasses
import pickle
import shutil

import numpy as np

from bench import ingest, serve, stats
from bench.inputs import Stream
from bench.spans import Tracer
from repro.cep.detectors import (
    CapacityDemandDetector,
    CollisionRiskDetector,
    LoiteringDetector,
    RendezvousDetector,
)
from repro.cep.simple import SimpleEventExtractor
from repro.core.pipeline import BatchOptions, MobilityPipeline
from repro.core.recordbatch import RecordBatch
from repro.forecasting.dead_reckoning import DeadReckoningPredictor
from repro.geo.bbox import BBox
from repro.insitu.filters import DeduplicateFilter, PlausibilityFilter
from repro.insitu.synopses import SynopsesGenerator
from repro.model.points import Domain
from repro.model.trajectory import Trajectory
from repro.query.parser import parse_query
from repro.rdf import vocabulary as V
from repro.rdf.emitter import CompiledReportEmitter
from repro.rdf.transform import entity_iri
from repro.runtime import ShardRouter
from repro.serving import AdmissionPolicy, ResultCache, ServingApp, entity_tag
from repro.store.dictionary import TermDictionary
from repro.store.parallel import ParallelRDFStore

BATCH = ingest.BATCH
STAGES = ("clean", "synopses", "rdf", "events", "detectors")
#: The columnar kernels and store insert the batch pipeline executes per batch.
KERNELS = (
    "core.recordbatch.build",
    "insitu.dedup",
    "insitu.plausibility",
    "insitu.synopses",
    "rdf.st_keys",
    "rdf.emit_ids",
    "store.add_id_documents",
)
#: Requests replayed in process against the identically built runtime.
REPLAY_REQUESTS = 600
#: Records the runtime arm shards when the workload is not the sharded one.
RUNTIME_PREFIX = 4096
#: Records warmed into the replay runtime when the workload is an ingest one.
SERVING_WARM = 8192

def _p50_ms(values: list[float]) -> float:
    return stats.quartiles(values)[1] * 1000.0 if values else 0.0


# -- core.pipeline: the program's own stage clocks ----------------------------


def pipeline_stages(
    stream: Stream, mode: str, seconds: float, tracer: Tracer, out: dict
) -> tuple[float, MobilityPipeline, list[float]]:
    """Registry-off and registry-on runs, alternated for ``seconds`` (at least one pair).

    Returns the last registry-on run's wall and pipeline (whose stage
    clocks are reported and whose store feeds the query lap), and the
    operation latencies of the registry-off runs.
    """
    off: list[float] = []
    on: list[float] = []
    latencies: list[float] = []
    spent = 0.0
    pipeline = None
    while pipeline is None or spent < seconds:
        for enabled in (False, True) if len(off) % 2 == 0 else (True, False):
            with tracer.span("core.pipeline.run_traced" if enabled else "core.pipeline.run"):
                wall, built, __, operation_s = ingest.timed_run(
                    stream, mode, "", enabled
                )
            spent += wall
            if enabled:
                on.append(wall)
                pipeline = built
            else:
                off.append(wall)
                latencies.extend(operation_s)
    wall_on = on[-1]
    stage = pipeline.stage_wall_seconds()
    for name in ("clean", "synopses", "rdf"):
        out[f"core.pipeline.stage_{name}_s"] = stage[name]
    # The columnar walk books simple-event extraction under "detectors"
    # ("events" stays 0 there), so the two stages are reported as one.
    out["core.pipeline.stage_detectors_s"] = stage["events"] + stage["detectors"]
    # In batch mode the program's end_to_end clock covers the batches and
    # the rest of run() (slicing, finalize) is what it leaves untimed.
    out["core.pipeline.untimed_s"] = wall_on - stage["end_to_end"]
    out["core.pipeline.trace_coverage"] = sum(stage[s] for s in STAGES) / wall_on
    out["core.pipeline.tracing_overhead_share"] = (
        stats.quartiles(on)[1] / stats.quartiles(off)[1] - 1.0
    )
    counters = pipeline.metrics.as_dict()["counters"]
    out["rdf.emitter_fallbacks"] = counters.get("rdf.emitter.fallback", 0)
    return wall_on, pipeline, latencies


# -- sources → insitu → rdf → store → cep: each layer's public calls ----------


def ingest_layers(stream: Stream, tracer: Tracer, out: dict) -> float:
    """Time every ingest layer in isolation, batch by batch.

    Returns the seconds spent in the kernels the batch pipeline executes
    (:data:`KERNELS` — the id path, not the object path).
    """
    spec = stream.spec
    config = spec.config
    # The public components of a fresh pipeline (grid, transformer, store)
    # are reused so the isolated layers are configured exactly as it is.
    host = ingest.fresh_pipeline(stream)
    transformer = host.transformer
    id_store = host.store
    emitter = CompiledReportEmitter(transformer, id_store.dictionary)
    object_store = ParallelRDFStore(id_store.partitioner)
    dictionary = TermDictionary()
    dedup = DeduplicateFilter()
    plausibility = PlausibilityFilter(registry=spec.registry)
    synopses = SynopsesGenerator(config.synopses)
    zones = list(spec.zones)
    extractor = SimpleEventExtractor(
        config=config.simple_events, zones=zones, registry=spec.registry
    )
    collision = CollisionRiskDetector(
        cpa_threshold_m=config.collision_cpa_m, tcpa_threshold_s=config.collision_tcpa_s
    )
    loitering = LoiteringDetector(
        radius_m=config.loitering_radius_m, min_duration_s=config.loitering_duration_s
    )
    rendezvous = RendezvousDetector(
        radius_m=config.rendezvous_radius_m, min_duration_s=config.rendezvous_duration_s
    )
    # The pipeline runs the capacity detector on aviation input only; the
    # lap runs it over the workload's zones either way, so the number
    # exists for every workload.
    capacity = CapacityDemandDetector(
        sectors=zones, capacity=config.capacity_limit, window_s=config.capacity_window_s
    )
    span = tracer.span
    reports = stream.reports
    clean_n = kept_n = triples = simple_n = complex_n = 0
    # Three passes over the batches rather than one, so the kernels the
    # pipeline executes back to back are timed back to back too: the
    # object path and the scalar detectors would otherwise run between
    # them and evict what they keep warm.
    batches: list[tuple[list, list]] = []
    with ingest.paused_gc():
        for start in range(0, len(reports), BATCH):
            chunk = reports[start : start + BATCH]
            with span("lap.kernels"):
                with span("core.recordbatch.build"):
                    rb = RecordBatch.from_reports(chunk, offset=start)
                with span("insitu.dedup"):
                    fresh = dedup.accept_recordbatch(rb)
                with span("insitu.plausibility"):
                    mask = plausibility.accept_recordbatch(rb, fresh)
                with span("insitu.synopses"):
                    decisions = synopses.process_recordbatch(rb, mask)
                active = np.flatnonzero(mask).tolist()
                kept = [decisions[p][0] for p in active if decisions[p][1]]
                with span("rdf.st_keys"):
                    keys = emitter.st_keys(rb.lon, rb.lat, rb.t).tolist()
                with span("rdf.emit_ids"):
                    id_docs = []
                    for p in active:
                        annotated, keep = decisions[p]
                        if keep:
                            subject, ids = emitter.emit_ids(annotated, keys[p])
                            id_docs.append((subject, ids, keys[p], True))
                with span("store.add_id_documents"):
                    id_store.add_id_documents(id_docs)
            clean_n += len(active)
            kept_n += len(kept)
            triples += sum(len(doc[1]) for doc in id_docs)
            batches.append(([chunk[p] for p in active], kept))
        for __, kept in batches:
            with span("lap.object_path"):
                with span("rdf.transform_objects"):
                    documents = [transformer.report_to_triples(a) for a in kept]
                with span("store.encode_many"):
                    dictionary.encode_many(
                        term for doc in documents for t in doc for term in (t.s, t.p, t.o)
                    )
                with span("store.add_documents"):
                    object_store.add_documents(documents)
        for clean, __ in batches:
            with span("lap.detectors"):
                with span("cep.simple_events"):
                    events = [extractor.process(r) for r in clean]
                simple_n += sum(len(e) for e in events)
                with span("cep.collision"):
                    for r in clean:
                        complex_n += len(collision.process(r))
                with span("cep.loitering"):
                    for r in clean:
                        complex_n += len(loitering.process(r))
                with span("cep.rendezvous"):
                    for r, found in zip(clean, events):
                        for event in found:
                            complex_n += len(rendezvous.process(event))
                        complex_n += len(rendezvous.tick(r.t))
                with span("cep.capacity"):
                    for r in clean:
                        capacity.process(r)
    with span("cep.capacity"):
        capacity_events = len(capacity.flush())
    if spec.domain is Domain.AVIATION:
        complex_n += capacity_events
    for name in (
        "core.recordbatch.build",
        "insitu.dedup",
        "insitu.plausibility",
        "insitu.synopses",
        "rdf.emit_ids",
        "rdf.st_keys",
        "rdf.transform_objects",
        "store.encode_many",
        "store.add_id_documents",
        "store.add_documents",
        "cep.collision",
        "cep.loitering",
        "cep.rendezvous",
        "cep.capacity",
    ):
        out[f"{name}_s"] = tracer.total(name)
    out["cep.simple_events_s"] = tracer.total("cep.simple_events")
    out["insitu.keep_ratio"] = kept_n / clean_n if clean_n else 0.0
    out["rdf.triples_emitted"] = triples
    out["store.triples_stored"] = len(id_store)
    out["store.partition_skew"] = id_store.stats().imbalance
    out["cep.simple_events"] = simple_n
    out["cep.complex_events"] = complex_n
    return sum(tracer.total(name) for name in KERNELS)


# -- store.match, query, forecasting -------------------------------------------


def range_boxes(stream: Stream, lattice: int) -> list[BBox]:
    """Four boxes of the request mix's size, on the workload's range lattice."""
    box = stream.spec.bbox
    span_x = box.max_lon - box.min_lon
    span_y = box.max_lat - box.min_lat
    cells = (lattice // 8, lattice // 2)
    return [
        BBox(
            box.min_lon + ix * span_x / lattice,
            box.min_lat + iy * span_y / lattice,
            box.min_lon + ix * span_x / lattice + span_x / 4.0,
            box.min_lat + iy * span_y / lattice + span_y / 4.0,
        )
        for ix in cells
        for iy in cells
    ]


def query_layers(
    stream: Stream, pipeline: MobilityPipeline, kind: str, tracer: Tracer, out: dict
) -> None:
    """Query and store-read cost over the store the traced pipeline run filled."""
    store, executor = pipeline.store, pipeline.executor
    span = tracer.span
    with span("store.match"):
        for __ in store.match(p=V.PROP_TYPE, o=V.CLASS_SEMANTIC_NODE):
            pass
        for entity_id in stream.entity_ids:
            for __ in store.match(p=V.PROP_OF_MOVING_OBJECT, o=entity_iri(entity_id)):
                pass
    out["store.match_s"] = tracer.total("store.match")
    before = pipeline.metrics.as_dict()["counters"]
    phases = {"parse_s": 0.0, "plan_s": 0.0, "scan_s": 0.0, "postprocess_s": 0.0}
    results = []
    for text in serve.QUERIES:
        with span("query.text"):
            with span("query.parse"):
                parse_query(text)
            with span("query.execute"):
                rows, report = executor.execute_text(text)
        results.append(len(rows))
        for phase, value in report.phase_times().items():
            phases[phase] += value
    lattice = serve.CHURN_LATTICE if kind == "churn" else 4
    for box in range_boxes(stream, lattice):
        with span("query.range"):
            found, report = executor.range_query(box)
        results.append(len(found))
        for phase, value in report.phase_times().items():
            phases[phase] += value
    # parse_s is the bench-side span around parse_query; the other three
    # are the phases ExecutionReport publishes.
    out["query.parse_s"] = tracer.total("query.parse")
    for phase in ("plan_s", "scan_s", "postprocess_s"):
        out[f"query.{phase}"] = phases[phase]
    out["query.rows_per_result"] = sum(results) / len(results)
    after = pipeline.metrics.as_dict()["counters"]
    executed = after.get("query.executed", 0) - before.get("query.executed", 0)
    scans = after.get("store.partition_scans", 0) - before.get("store.partition_scans", 0)
    out["store.partition_scans_per_query"] = scans / executed if executed else 0.0


def forecast_layer(stream: Stream, tracer: Tracer, out: dict) -> None:
    """The predictor behind ``forecast`` over the (entity, horizon) pool."""
    tracks: dict[str, list] = {}
    for r in stream.reports:
        track = tracks.setdefault(r.entity_id, [])
        if not track or r.t > track[-1].t:
            track.append(r)
    predictor = DeadReckoningPredictor(window_s=60.0)
    for entity_id in sorted(tracks):
        tail = tracks[entity_id][-128:]
        alts = [r.alt for r in tail]
        history = Trajectory(
            entity_id,
            [r.t for r in tail],
            [r.lon for r in tail],
            [r.lat for r in tail],
            alt=alts if all(a is not None for a in alts) else None,
        )
        for horizon in (300.0, 600.0, 1800.0):
            with tracer.span("forecasting.dead_reckoning"):
                predictor.predict(history, horizon)
    out["forecasting.dead_reckoning_s"] = tracer.total("forecasting.dead_reckoning")


# -- serving: in-process replay of the request sequence -------------------------


async def _replay(
    app: ServingApp,
    requests: list[serve.Request],
    writes: list[list],
    tracer: Tracer,
    failures: list[str],
) -> None:
    runtime = app.runtime
    span = tracer.span
    # Stand-alone instances, so timing a lookup or an admission decision
    # does not disturb the cache and controllers the replayed app uses.
    cache = ResultCache()
    admission = AdmissionPolicy()
    chunks = iter(writes)
    for index, (endpoint, params) in enumerate(requests, start=1):
        if writes and index % serve.WRITE_EVERY == 0:
            chunk = next(chunks, None)
            if chunk is not None:
                with span("serving.ingest_batch"):
                    runtime.ingest(chunk)
                continue
        entity_id = params.get("entity_id")
        key = f"{endpoint}:{sorted(params.items())!r}"
        with span("serving.request"):
            with span("serving.admit"):
                admission.try_admit("bench", 0)
            with span("serving.route_plan"):
                runtime.router.plan(entity_id)
            with span("serving.cache_get"):
                found = cache.get(key, now=0.0)
            with span("serving.handle_fresh"):
                fresh = runtime.handle(endpoint, params, bypass_cache=True)
            with span("serving.app_request"):
                response = await app.request(endpoint, params, client_id="bench")
            with span("serving.handle_hit"):
                hit = runtime.handle(endpoint, params)
        if found is None:
            tags = {entity_tag(entity_id)} if entity_id else set()
            cache.put(key, fresh.payload, tags, now=0.0)
        if not (fresh.ok and response.ok and hit.cached):
            failures.append(f"{endpoint} {params}: {fresh.status}/{response.status}")
        if index % serve.VERIFY_EVERY == 0:
            cached, bypass = app.verify(endpoint, params)
            if cached.digest != bypass.digest:
                failures.append(f"{endpoint} {params}: cached and fresh digests differ")


def serving_layers(
    stream: Stream, kind: str, seed: int, tiny: bool, tracer: Tracer, out: dict
) -> tuple[int, int]:
    """Replay one connection's request sequence in process; ``(attempted, failed)``."""
    warm, held_back = serve.split(kind, stream)
    with tracer.span("serving.warm"):
        runtime = serve.build_runtime(stream.spec, warm, enabled=True)
    requests_of = serve.request_stream(
        kind, seed, stream, sorted({r.entity_id for r in warm})
    )
    n = 100 if tiny else REPLAY_REQUESTS
    requests = [next(requests_of) for __ in range(n)]
    writes = serve.write_chunks(held_back) if kind == "churn" else []
    failures: list[str] = []
    asyncio.run(_replay(ServingApp(runtime), requests, writes, tracer, failures))
    out["serving.cache_get_s"] = tracer.total("serving.cache_get")
    out["serving.route_plan_s"] = tracer.total("serving.route_plan")
    out["serving.admit_s"] = tracer.total("serving.admit")
    out["serving.handle_fresh_p50_ms"] = _p50_ms(tracer.durations("serving.handle_fresh"))
    out["serving.handle_hit_p50_ms"] = _p50_ms(tracer.durations("serving.handle_hit"))
    out["serving.app_request_p50_ms"] = _p50_ms(tracer.durations("serving.app_request"))
    # With no writes in the mix, the cost of a serving ingest batch is
    # read off a fresh runtime fed the stream's first sixteen chunks.
    ingests = tracer.durations("serving.ingest_batch")
    if not ingests:
        probe = serve.build_runtime(stream.spec, [], enabled=False)
        for start in range(0, min(len(warm), 16 * serve.WRITE_REPORTS), serve.WRITE_REPORTS):
            with tracer.span("serving.ingest_batch"):
                probe.ingest(warm[start : start + serve.WRITE_REPORTS])
        ingests = tracer.durations("serving.ingest_batch")
    out["serving.ingest_batch_p50_ms"] = _p50_ms(ingests)
    return (len(requests), len(failures))


def http_layers(
    state: serve.ServeState, seconds: float, operations: int | None, out: dict
) -> tuple[int, int]:
    """The HTTP arm against a registry-on child; ``(attempted, failed)``."""
    before = state.server.stats()["counters"]
    measured = serve.measure(state, seconds, operations)
    after = state.server.stats()["counters"]

    def moved(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    lookups = moved("serving.cache.hit") + moved("serving.cache.miss")
    out["serving.cache_hit_ratio"] = moved("serving.cache.hit") / lookups if lookups else 0.0
    out["serving.cache_evicted"] = moved("serving.cache.evicted")
    out["serving.cache_invalidated"] = moved("serving.cache.invalidated")
    out["serving.shed"] = moved("serving.admission.shed")
    reads = sorted(measured.latencies_s)
    http_p50 = stats.percentile(reads, 0.5) * 1000.0
    out["serving.http_overhead_p50_ms"] = http_p50 - out["serving.app_request_p50_ms"]
    out["latency_p99_ms"] = stats.percentile(reads, 0.99) * 1000.0
    write_s = measured.write_s
    if not write_s:
        # No writes in this mix: a few after the read phase, so the cost
        # of one is still on record for the workload's state.
        client = state.client
        for chunk in serve.write_chunks(state.held_back)[:8]:
            client.write_now(serve.ingest_body(chunk))
        write_s = client.write_s
    out["serving.write_p50_ms"] = _p50_ms(write_s)
    return (measured.attempted, measured.failed)


# -- runtime: transport, spawn, honest speed-up ---------------------------------


def runtime_layers(
    stream: Stream, whole: bool, out_dir: str, tracer: Tracer, out: dict
) -> tuple[int, int]:
    """Pickle transport, spawn cost and sharded-vs-in-process rate on one prefix."""
    prefix = stream.reports if whole else stream.reports[:RUNTIME_PREFIX]
    span = tracer.span
    pickled = 0
    for start in range(0, len(prefix), BATCH):
        with span("runtime.pickle_batch"):
            data = pickle.dumps(prefix[start : start + BATCH])
            # Bytes this process produced one line above.
            pickle.loads(data)
        pickled += len(data)
    out["runtime.pickle_batch_s"] = tracer.total("runtime.pickle_batch")
    out["runtime.pickle_bytes_per_record"] = pickled / len(prefix)
    checkpoints = ingest.checkpoint_dir(out_dir)
    try:
        # One record per shard: a run that is nothing but spawn, ready
        # handshake, result return and merge.
        router = ShardRouter(ingest.n_workers())
        seen: dict[int, object] = {}
        for r in prefix:
            seen.setdefault(router.route(r), r)
        with span("runtime.spawn"):
            ingest.supervisor(stream, checkpoints).run(
                sorted(seen.values(), key=lambda r: r.t)
            )
        with span("runtime.sharded_run"):
            result = ingest.supervisor(stream, checkpoints).run(prefix)
    finally:
        shutil.rmtree(checkpoints, ignore_errors=True)
    sharded_s = tracer.total("runtime.sharded_run")
    with span("runtime.inproc_run"):
        ingest.fresh_pipeline(stream).run(prefix, batch=BatchOptions(BATCH))
    out["runtime.spawn_s"] = tracer.total("runtime.spawn")
    out["runtime.speedup_vs_inproc"] = tracer.total("runtime.inproc_run") / sharded_s
    out["runtime.shard_skew"] = router.skew(prefix)
    out["runtime.restarts"] = result.restarts_total
    return (len(prefix), len(prefix) - result.reports_in)


# -- the lap ---------------------------------------------------------------------


def lap(
    workload: str,
    stream: Stream,
    seed: int,
    seconds: float,
    out_dir: str,
    tiny: bool,
    tracer: Tracer,
) -> tuple[dict[str, float], int, int]:
    """Every per-layer metric of one workload; ``(metrics, attempted, failed)``."""
    out: dict[str, float] = {
        "sources.generate_s": stream.generate_s,
        "sources.records": len(stream.reports),
    }
    # Only ingest_record runs its pipeline per record; the sharded and
    # serve workloads' pipelines (in workers, in shards) run in batches.
    mode = "record" if workload == "ingest_record" else "batch"
    kind = serve.KINDS.get(workload, "hot")
    serving_stream = stream
    if workload not in serve.KINDS and len(stream.reports) > SERVING_WARM:
        # An ingest workload serves from the state its stream's head leaves.
        serving_stream = dataclasses.replace(
            stream, reports=stream.reports[:SERVING_WARM]
        )
    wall_on, pipeline, latencies = pipeline_stages(
        stream, mode, seconds / 3.0, tracer, out
    )
    kernels = ingest_layers(stream, tracer, out)
    out["core.pipeline.glue_share"] = (
        1.0 - (kernels + out["core.pipeline.stage_detectors_s"]) / wall_on
    )
    query_layers(stream, pipeline, kind, tracer, out)
    forecast_layer(stream, tracer, out)
    counts = [
        serving_layers(serving_stream, kind, seed, tiny, tracer, out),
        runtime_layers(stream, workload == "ingest_sharded", out_dir, tracer, out),
    ]
    state = serve.setup(
        workload if workload in serve.KINDS else "serve_hot",
        seed,
        out_dir,
        tiny,
        enabled=True,
        stream=serving_stream,
    )
    try:
        http_seconds = seconds / 2.0 if workload in serve.KINDS else min(1.0, seconds / 2.0)
        with tracer.span("serving.http_arm"):
            counts.append(http_layers(state, http_seconds, 50 if tiny else None, out))
    finally:
        serve.teardown(state)
    # The tail of the workload's own operation (the end-to-end run's
    # latency_p50_ms is its median): the HTTP arm's reads, set just above,
    # for serve_*; otherwise what this lap's untraced runs observed.
    if workload == "ingest_sharded":
        out["latency_p99_ms"] = tracer.total("runtime.sharded_run") * 1000.0
    elif workload not in serve.KINDS:
        out["latency_p99_ms"] = stats.percentile(sorted(latencies), 0.99) * 1000.0
    return out, sum(c[0] for c in counts), sum(c[1] for c in counts)
