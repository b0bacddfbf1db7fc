"""E2 — "must comply with operational latency requirements (i.e. in ms)"
(paper §4).

Measures per-operator latency (p50/p95/p99) of every pipeline stage and
of the end-to-end path through the unified observability registry, plus
sustained throughput. Three artifacts land in ``benchmarks/results/``:

- ``e2_latency.txt`` — the human-readable table (as before);
- ``e2_latency.json`` — per-operator percentiles, throughput, the SLO
  verdict and the instrumentation-overhead measurement, machine-readable
  and comparable run-to-run (the registry's reservoirs are seeded);
- ``e2_trace.jsonl`` — the full registry export (counters, reservoirs,
  spans) via :class:`~repro.obs.export.JsonLinesExporter`, reloadable
  with identical percentiles.

Two gates hold, in pytest and in the standalone ``--smoke`` entry point:

- the :data:`~repro.obs.slo.DEFAULT_E2_BUDGETS` latency SLOs;
- instrumentation overhead (enabled vs disabled registry) under 5% of
  end-to-end wall time.

Standalone (no pytest-benchmark required)::

    PYTHONPATH=src python -m benchmarks.bench_e2_latency --smoke

Expected shape: every stage's p99 well under 1 ms on commodity hardware;
the RDF write is the heaviest stage; end-to-end p99 in single-digit ms.
"""

import argparse
import gc
import json
import os
import time

from benchmarks.conftest import RESULTS_DIR, emit_table
from repro.core.config import PipelineConfig
from repro.core.pipeline import BatchOptions, MobilityPipeline
from repro.obs import (
    DEFAULT_E2_BUDGETS,
    JsonLinesExporter,
    MetricsRegistry,
    SLOChecker,
)

#: Instrumentation-overhead budget: enabled-registry wall time may exceed
#: the disabled-registry run by at most this fraction.
OVERHEAD_BUDGET = 0.05
#: Repeats per arm per measurement block for the overhead measurement.
OVERHEAD_REPEATS = 6
#: Maximum measurement blocks pooled before the estimate is accepted as-is.
OVERHEAD_BLOCKS = 4
#: Registry seed — fixed so reservoirs (hence percentiles) compare
#: run-to-run on identical sample streams.
REGISTRY_SEED = 2017
#: Batch size of the native-RecordBatch-source arm of the batch bench.
NATIVE_BATCH_SIZE = 256


def _pipeline(sample, metrics, trace_every_n=100):
    return MobilityPipeline(
        bbox=sample.world.bbox,
        config=PipelineConfig(trace_every_n=trace_every_n),
        registry=sample.registry,
        zones=sample.world.zones,
        metrics=metrics,
    )


def run_instrumented(sample, trace_every_n=100):
    """One fully observed run; returns ``(metrics, result)``."""
    metrics = MetricsRegistry(seed=REGISTRY_SEED)
    result = _pipeline(sample, metrics, trace_every_n).run(list(sample.reports))
    return metrics, result


def measure_overhead(sample, repeats=OVERHEAD_REPEATS, max_blocks=OVERHEAD_BLOCKS):
    """Wall-time cost of the observability layer on the E2 workload.

    Times the per-record streaming path (``process_report`` over the whole
    stream, plus the latency-buffer flush) with an enabled and a disabled
    registry and returns ``{"enabled_s", "disabled_s", "overhead_pct",
    "runs_per_arm"}``. The one-time finalize work (summary percentiles,
    registry snapshot) is *reporting* and scales O(1) in the stream
    length, so it is excluded — the budget governs the cost added to
    every record.

    Noise discipline — the true gap (a few percent) sits near the noise
    floor of shared hardware, where wall times swing by 10-20% in
    multi-second bursts:

    - arms run in ABBA order, so neither is always second (which would
      fold machine drift into the comparison);
    - gc is paused and collected between runs (a collection landing
      inside one arm would be charged to it);
    - each arm reports its minimum: the min converges on the noise-free
      floor, which is the quantity the instrumentation actually shifts;
    - samples pool across up to ``max_blocks`` blocks of ``repeats``
      paired runs, stopping as soon as the pooled estimate is inside the
      budget — one block is enough on quiet hardware, while a block that
      straddles a noise burst gets more chances to sample a quiet window
      for both arms.
    """
    reports = list(sample.reports)
    # Untimed warmup of both arms: the first run pays allocator/cache
    # warmup that would otherwise bias whichever arm goes first.
    for enabled in (False, True):
        _pipeline(sample, MetricsRegistry(seed=REGISTRY_SEED, enabled=enabled)).run(
            reports
        )
    times = {True: [], False: []}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for block in range(max_blocks):
            for repeat in range(repeats):
                order = (False, True) if repeat % 2 == 0 else (True, False)
                for enabled in order:
                    metrics = MetricsRegistry(seed=REGISTRY_SEED, enabled=enabled)
                    pipeline = _pipeline(sample, metrics)
                    gc.collect()
                    started = time.perf_counter()
                    for report in reports:
                        pipeline.process_report(report)
                    pipeline._flush_latency()
                    times[enabled].append(time.perf_counter() - started)
            if min(times[True]) / min(times[False]) - 1.0 < OVERHEAD_BUDGET:
                break
    finally:
        if gc_was_enabled:
            gc.enable()
    enabled_s = min(times[True])
    disabled_s = min(times[False])
    return {
        "enabled_s": enabled_s,
        "disabled_s": disabled_s,
        "overhead_pct": (enabled_s / disabled_s - 1.0) * 100.0,
        "runs_per_arm": len(times[True]),
    }


def measure_batch_arms(sample, batch_sizes=(1, 64, 256), repeats=3, trace_every_n=100):
    """Throughput/latency of the micro-batch entry point per batch size.

    Runs the whole stream through :meth:`MobilityPipeline.run` with
    ``BatchOptions`` once per batch size (plus a ``record`` arm on the classic per-record
    path) and reports each arm's *minimum* wall time — the noise-floor
    convention of :func:`measure_overhead`. The same noise discipline
    applies: arms are interleaved round-robin (``repeats`` rounds, each
    round visiting every arm, alternating direction) so a machine-load
    burst lands on every arm instead of inflating whichever arm happened
    to run during it — essential when downstream gates compare arm
    *ratios*. Latency percentiles come from the run's own
    ``pipeline.end_to_end`` histogram (the columnar core samples one
    amortized per-record latency per batch, so the histograms stay
    comparable across arms). Sizes below the pipeline's columnar
    threshold — the ``batch1`` arm — measure the per-record loop behind
    the batch entry point.

    Returns ``{arm_name: {"batch_size", "wall_s", "records_per_s",
    "p50_ms", "p95_ms", "p99_ms", "deterministic_digest"}}``; digests let
    callers assert the arms computed identical results.
    """
    reports = list(sample.reports)
    named = [("record", None)] + [(f"batch{size}", size) for size in batch_sizes]
    # Native columnar emission: the source yields RecordBatch instances
    # (column construction happens inside the timed run, exactly like the
    # batch arms pay from_reports inside process_batch).
    named.append(("recordbatch", "native"))

    def run_once(batch_size):
        metrics = MetricsRegistry(seed=REGISTRY_SEED)
        pipeline = _pipeline(sample, metrics, trace_every_n)
        gc.collect()
        started = time.perf_counter()
        if batch_size is None:
            result = pipeline.run(reports)
        elif batch_size == "native":
            result = pipeline.run(sample.record_batches(NATIVE_BATCH_SIZE))
        else:
            result = pipeline.run(reports, batch=BatchOptions(size=batch_size))
        return time.perf_counter() - started, metrics, result

    best = {name: None for name, __ in named}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for name, batch_size in named:  # untimed warmup (allocator/caches)
            run_once(batch_size)
        for round_no in range(repeats):
            order = named if round_no % 2 == 0 else list(reversed(named))
            for name, batch_size in order:
                wall, metrics, result = run_once(batch_size)
                if best[name] is None or wall < best[name][0]:
                    best[name] = (wall, metrics, result)
    finally:
        if gc_was_enabled:
            gc.enable()

    arms = {}
    for name, batch_size in named:
        best_wall, metrics, result = best[name]
        end_to_end = metrics.histogram_summaries()["pipeline.end_to_end"]
        arms[name] = {
            "batch_size": NATIVE_BATCH_SIZE if batch_size == "native" else batch_size,
            "wall_s": best_wall,
            "records_per_s": len(reports) / best_wall if best_wall > 0 else 0.0,
            "p50_ms": end_to_end["p50_ms"],
            "p95_ms": end_to_end["p95_ms"],
            "p99_ms": end_to_end["p99_ms"],
            "deterministic_digest": result.deterministic_digest(),
        }
    return arms


def emit_batch_table(arms):
    """The batch-size arm table (speedup relative to the batch-1 arm)."""
    base_rps = arms["batch1"]["records_per_s"] if "batch1" in arms else None
    rows = []
    for name, arm in arms.items():
        rows.append([
            name,
            arm["batch_size"] if arm["batch_size"] is not None else "-",
            arm["wall_s"],
            arm["records_per_s"],
            arm["p99_ms"],
            arm["records_per_s"] / base_rps if base_rps else 1.0,
        ])
    emit_table(
        "e2_batch",
        "E2 (batch): micro-batch path vs per-record",
        ["arm", "batch_size", "wall_s", "records_per_s", "p99_ms", "speedup_vs_batch1"],
        rows,
    )


def collect_artifacts(sample, out_dir=RESULTS_DIR, with_overhead=True):
    """Run E2, write the table/JSON/trace artifacts, return the report."""
    metrics, result = run_instrumented(sample)

    summaries = metrics.histogram_summaries()
    stage_rows = []
    stages = {}
    for name in sorted(summaries):
        if not name.startswith(("pipeline.", "store.", "query.")):
            continue
        summary = summaries[name]
        stages[name] = summary
        stage_rows.append([
            name,
            int(summary["count"]),
            summary["p50_ms"],
            summary["p95_ms"],
            summary["p99_ms"],
        ])
    stage_rows.append(["throughput_rps", int(result.throughput_rps), 0.0, 0.0, 0.0])
    emit_table(
        "e2_latency",
        "E2: per-operator latency (ms) and sustained throughput",
        ["operator", "records", "p50_ms", "p95_ms", "p99_ms"],
        stage_rows,
    )

    checker = SLOChecker(DEFAULT_E2_BUDGETS)
    report = {
        "experiment": "e2_latency",
        "registry_seed": REGISTRY_SEED,
        "reports_in": result.reports_in,
        "throughput_rps": result.throughput_rps,
        "operators": stages,
        "end_to_end": summaries["pipeline.end_to_end"],
        "slo": checker.report(metrics),
        "trace": result.metrics.get("trace", {}),
    }
    if with_overhead:
        report["overhead"] = measure_overhead(sample)

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "e2_latency.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    JsonLinesExporter().export(metrics, os.path.join(out_dir, "e2_trace.jsonl"))
    return metrics, result, report


def test_e2_per_stage_latency(benchmark, maritime_fleet):
    metrics, result, report = collect_artifacts(maritime_fleet, with_overhead=False)

    # The paper's ms-latency requirement, now an executable contract.
    SLOChecker(DEFAULT_E2_BUDGETS).assert_ok(metrics)
    assert result.throughput_rps > 500.0

    # Benchmark the steady-state per-record path on a warm pipeline.
    warm = _pipeline(maritime_fleet, MetricsRegistry(seed=REGISTRY_SEED))
    reports = list(maritime_fleet.reports)
    for report_ in reports[:2000]:
        warm.process_report(report_)
    tail = reports[2000:3000] or reports[:1000]
    index = {"i": 0}

    def one_record():
        report_ = tail[index["i"] % len(tail)]
        index["i"] += 1
        warm.process_report(report_.replace_time(report_.t + 10_000.0 + index["i"]))

    benchmark(one_record)


def test_e2_batch_size_arms(maritime_fleet):
    """E2 (batch): every arm computes identical results, and the batch
    path's amortized latencies stay inside the same SLO budgets.

    The >= 2x throughput target is gated in ``run_all.py --check`` (ratio
    vs a committed baseline, min-of-N); here the assertion is correctness
    plus sanity, so tier-1 stays robust to shared-hardware noise.
    """
    arms = measure_batch_arms(maritime_fleet, batch_sizes=(1, 64, 256), repeats=1)
    emit_batch_table(arms)
    digests = {arm["deterministic_digest"] for arm in arms.values()}
    assert len(digests) == 1, f"batch arms diverged: {arms}"
    end_to_end_budget = next(
        b for b in DEFAULT_E2_BUDGETS if b.metric == "pipeline.end_to_end"
    )
    for name, arm in arms.items():
        assert arm["records_per_s"] > 0.0, name
        assert arm["p99_ms"] < end_to_end_budget.p99_ms, name


def test_e2c_instrumentation_overhead(maritime_fleet):
    """E2c: the observability layer costs <5% of end-to-end wall time."""
    overhead = measure_overhead(maritime_fleet)
    emit_table(
        "e2c_obs_overhead",
        "E2c: instrumentation overhead (enabled vs disabled registry)",
        ["arm", "wall_s"],
        [
            ["disabled", overhead["disabled_s"]],
            ["enabled", overhead["enabled_s"]],
            ["overhead_pct", overhead["overhead_pct"]],
        ],
    )
    assert overhead["overhead_pct"] < OVERHEAD_BUDGET * 100.0, (
        f"instrumentation overhead {overhead['overhead_pct']:.2f}% "
        f"exceeds the {OVERHEAD_BUDGET:.0%} budget"
    )


def test_e2b_stream_parallelism(benchmark, maritime_fleet):
    """E2b: simulated task-slot parallelism of the keyed synopses stage.

    The same stream is processed by 1/2/4/8 clones of the synopses
    operator with hash routing by entity; the table reports routing skew
    and the simulated makespan speedup over the single-slot run.
    """
    from benchmarks.conftest import emit_table
    from repro.insitu.synopses import SynopsesOperator
    from repro.streams.parallel import ParallelKeyedRunner
    from repro.streams.records import Record

    records = [Record(event_time=r.t, value=r) for r in maritime_fleet.reports]
    rows = []
    baseline_s = None
    for n_tasks in (1, 2, 4, 8):
        runner = ParallelKeyedRunner(
            SynopsesOperator, n_tasks, key_fn=lambda r: r.entity_id
        )
        outputs, report = runner.run(iter(records))
        if baseline_s is None:
            baseline_s = report.makespan_s
        rows.append([
            n_tasks,
            report.records_in,
            len(outputs),
            report.skew,
            report.sequential_s * 1000.0,
            report.makespan_s * 1000.0,
            baseline_s / report.makespan_s if report.makespan_s > 0 else 1.0,
        ])
    emit_table(
        "e2b_stream_parallel",
        "E2b: keyed synopses stage under simulated task parallelism",
        ["tasks", "records", "kept", "skew", "sequential_ms",
         "makespan_ms", "speedup_vs_1"],
        rows,
    )
    # Outputs are identical regardless of parallelism (keyed state).
    kept_counts = {row[2] for row in rows}
    assert len(kept_counts) == 1

    runner = ParallelKeyedRunner(SynopsesOperator, 4, key_fn=lambda r: r.entity_id)
    benchmark(lambda: runner.run(iter(records[:2000])))


def main() -> int:
    """Standalone entry: run E2, gate on SLO + overhead, write artifacts."""
    from repro.sources.generators import MaritimeTrafficGenerator

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload for CI (6 vessels, 1 hour)",
    )
    parser.add_argument("--out-dir", default=RESULTS_DIR)
    parser.add_argument(
        "--batch-sizes",
        default="1,64,256",
        help="comma-separated batch-size arms ('' disables the batch table)",
    )
    args = parser.parse_args()

    if args.smoke:
        sample = MaritimeTrafficGenerator(seed=101).generate(
            n_vessels=6, max_duration_s=3600.0
        )
    else:
        sample = MaritimeTrafficGenerator(seed=101).generate(
            n_vessels=12, max_duration_s=2 * 3600.0
        )
    metrics, result, report = collect_artifacts(sample, out_dir=args.out_dir)
    if args.batch_sizes:
        sizes = tuple(int(s) for s in args.batch_sizes.split(","))
        arms = measure_batch_arms(sample, batch_sizes=sizes, repeats=2)
        emit_batch_table(arms)
        report["batch_arms"] = arms
        with open(
            os.path.join(args.out_dir, "e2_latency.json"), "w", encoding="utf-8"
        ) as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")

    failures = []
    if not report["slo"]["ok"]:
        for violation in report["slo"]["violations"]:
            failures.append(
                f"SLO: {violation['metric']} {violation['percentile']} = "
                f"{violation['observed_ms']:.3f} ms > {violation['budget_ms']:.3f} ms"
            )
    overhead_pct = report["overhead"]["overhead_pct"]
    if overhead_pct >= OVERHEAD_BUDGET * 100.0:
        failures.append(
            f"overhead: {overhead_pct:.2f}% >= {OVERHEAD_BUDGET:.0%} budget"
        )

    print(f"\nE2 end-to-end p99: {report['end_to_end']['p99_ms']:.3f} ms")
    print(f"E2 throughput: {report['throughput_rps']:.0f} records/s")
    if "batch_arms" in report:
        arms = report["batch_arms"]
        if len({arm["deterministic_digest"] for arm in arms.values()}) != 1:
            failures.append("batch arms computed divergent results")
        if "batch1" in arms and "batch256" in arms:
            ratio = arms["batch256"]["records_per_s"] / arms["batch1"]["records_per_s"]
            print(f"E2 batch256 vs batch1 throughput: {ratio:.2f}x")
    print(f"E2 instrumentation overhead: {overhead_pct:.2f}%")
    if failures:
        for failure in failures:
            print(f"FAIL {failure}")
        return 1
    print("E2 latency SLOs and overhead budget: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
