"""One-command benchmark runner with a standardized schema and a gate.

Runs the micro-batch throughput arms (E2), the multi-process runtime
arms (E2b) and the serving-tier load arms (E11) and writes one
``BENCH_<experiment>.json`` per experiment in the shared ``bench.v1``
schema::

    {
      "schema": "bench.v1",
      "experiment": "e2_micro_batch",
      "workload": {"generator", "seed", "n_vessels", "max_duration_s", "records"},
      "arms": [
        {"name", "batch_size", "workers", "dispatch",
         "records_per_s", "p50_ms", "p95_ms", "p99_ms", "wall_s"},
        ...
      ]
    }

``--check`` compares against a committed baseline
(``benchmarks/baselines/BENCH_baseline.json`` by default) and fails on a
>25% regression. Absolute records/s is machine-bound and noisy across
hosts, so the gate is deliberately *scale-free*: it compares the
batch-256 / batch-1 throughput **ratio** (the quantity the micro-batch
path is supposed to deliver) against the baseline's ratio, plus the
batch path against the same run's per-record path. Both arms of each
ratio run on the same machine in the same job, so host speed cancels;
each arm already reports the minimum of ``--repeats`` runs (noise floor
convention). A third gate holds the columnar RecordBatch core to its
headline win: batch-256 throughput must stay at least
``COLUMNAR_SPEEDUP_FLOOR`` times the archived pre-columnar baseline's
(``BENCH_baseline_pre_columnar.json``) — absolute by design, see
:func:`check_columnar_speedup`. The absolute latency budgets stay with
the dedicated ``latency-slo`` CI job.

Usage::

    PYTHONPATH=src python -m benchmarks.run_all --quick
    PYTHONPATH=src python -m benchmarks.run_all --quick --check
    PYTHONPATH=src python -m benchmarks.run_all --quick --write-baseline
"""

from __future__ import annotations

import argparse
import json
import os
import time

from benchmarks.bench_e11_serving import (
    BASELINE_PATH as E11_BASELINE_PATH,
    check_serving_regression,
    collect as collect_serving,
)
from benchmarks.bench_e2_latency import (
    REGISTRY_SEED,
    _pipeline,
    emit_batch_table,
    measure_batch_arms,
)
from benchmarks.bench_e2b_runtime import (
    DEFAULT_SERVICE_S,
    check_invariants,
    collect as collect_runtime,
    make_workload,
)
from benchmarks.conftest import RESULTS_DIR
from repro.core.pipeline import BatchOptions
from repro.obs import MetricsRegistry
from repro.sources.generators import MaritimeTrafficGenerator

SCHEMA = "bench.v1"
BASELINE_PATH = os.path.join(os.path.dirname(__file__), "baselines", "BENCH_baseline.json")
#: The baseline archived when the columnar RecordBatch core landed — the
#: last measurement of the old row-at-a-time batch path. The columnar
#: gate compares against this, permanently.
PRE_COLUMNAR_BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "baselines", "BENCH_baseline_pre_columnar.json"
)
#: A current ratio may undershoot its baseline ratio by at most this much.
REGRESSION_TOLERANCE = 0.25
#: The batch-256 arm must sustain at least this many times the archived
#: pre-columnar baseline's batch-256 throughput (the columnar core's
#: headline speedup; see :func:`check_columnar_speedup` on why this one
#: gate is absolute).
COLUMNAR_SPEEDUP_FLOOR = 4.5
#: Batch sizes benched; 1 and 256 anchor the regression ratio.
BATCH_SIZES = (1, 64, 256)


def e2_workload(quick: bool):
    params = {
        "generator": "maritime",
        "seed": 101,
        "n_vessels": 6 if quick else 12,
        "max_duration_s": 3600.0 if quick else 2 * 3600.0,
    }
    sample = MaritimeTrafficGenerator(seed=params["seed"]).generate(
        n_vessels=params["n_vessels"], max_duration_s=params["max_duration_s"]
    )
    params["records"] = len(sample.reports)
    return sample, params


def run_e2_micro_batch(quick: bool, repeats: int) -> dict:
    """The batch-size arms of E2, in the ``bench.v1`` shape."""
    sample, workload = e2_workload(quick)
    arms = measure_batch_arms(sample, batch_sizes=BATCH_SIZES, repeats=repeats)
    emit_batch_table(arms)
    if len({arm["deterministic_digest"] for arm in arms.values()}) != 1:
        raise AssertionError("batch arms computed divergent results")
    return {
        "schema": SCHEMA,
        "experiment": "e2_micro_batch",
        "quick": quick,
        "repeats": repeats,
        "workload": workload,
        "arms": [
            {
                "name": name,
                "batch_size": arm["batch_size"],
                "workers": 1,
                "dispatch": (
                    "record"
                    if arm["batch_size"] is None
                    else "columnar" if name == "recordbatch" else "batch"
                ),
                "records_per_s": arm["records_per_s"],
                "p50_ms": arm["p50_ms"],
                "p95_ms": arm["p95_ms"],
                "p99_ms": arm["p99_ms"],
                "wall_s": arm["wall_s"],
            }
            for name, arm in arms.items()
        ],
    }


def run_e2_stage_share(quick: bool, repeats: int) -> dict:
    """Per-stage wall-clock share of the gated batch-256 arm.

    Makes the "what dominates now" claim checkable in every perf-smoke
    run: the pipeline's stage-wall accumulator (raw elapsed collected at
    the same boundaries that feed the latency histograms) is reported
    per stage — as seconds and as a share of the end-to-end wall — from
    the fastest of ``repeats`` runs. ``untimed_overhead_s`` is the wall
    time outside the instrumented region (batch slicing, column
    construction, finalization).
    """
    sample, workload = e2_workload(quick)
    reports = list(sample.reports)
    best = None
    for _ in range(max(repeats, 2)):
        pipeline = _pipeline(sample, MetricsRegistry(seed=REGISTRY_SEED))
        started = time.perf_counter()
        pipeline.run(reports, batch=BatchOptions(size=256))
        wall_s = time.perf_counter() - started
        if best is None or wall_s < best[0]:
            best = (wall_s, pipeline.stage_wall_seconds())
    wall_s, stage_wall = best
    e2e = stage_wall["end_to_end"]
    shares = {
        stage: (wall / e2e if e2e > 0 else 0.0)
        for stage, wall in stage_wall.items()
        if stage != "end_to_end"
    }
    print("\n== E2 stage share (batch256) ==")
    for stage, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {stage:12s} {stage_wall[stage] * 1e3:8.3f} ms  {share:6.1%}")
    return {
        "schema": SCHEMA,
        "experiment": "e2_stage_share",
        "quick": quick,
        "workload": workload,
        "arms": [
            {
                "name": "batch256",
                "batch_size": 256,
                "workers": 1,
                "dispatch": "batch",
                "records_per_s": len(reports) / wall_s if wall_s > 0 else 0.0,
                "p50_ms": None,
                "p95_ms": None,
                "p99_ms": None,
                "wall_s": wall_s,
                "stage_wall_s": stage_wall,
                "stage_share": shares,
                "untimed_overhead_s": wall_s - e2e,
            }
        ],
    }


def run_e2b_runtime(quick: bool, out_dir: str) -> dict:
    """The worker-count arms of E2b, in the ``bench.v1`` shape."""
    spec, reports = make_workload(smoke=quick)
    worker_counts = (1, 2) if quick else (1, 2, 4)
    report, rows = collect_runtime(
        spec,
        reports,
        worker_counts,
        DEFAULT_SERVICE_S,
        out_dir=out_dir,
    )
    failures = check_invariants(rows)
    if failures:
        raise AssertionError("; ".join(failures))
    arms = []
    for workers, arm in report["arms"].items():
        summary = arm["summary"]
        wall_s = arm["wall_s"]
        arms.append(
            {
                "name": workers,
                "batch_size": None,
                "workers": int(workers),
                "dispatch": "batch",
                "records_per_s": summary["reports_in"] / wall_s if wall_s > 0 else 0.0,
                # Per-stage latency lives in the worker registries; the
                # runtime experiment measures wall/throughput only.
                "p50_ms": None,
                "p95_ms": None,
                "p99_ms": None,
                "wall_s": wall_s,
                "speedup_vs_1": arm["speedup_vs_1"],
            }
        )
    return {
        "schema": SCHEMA,
        "experiment": "e2b_runtime",
        "quick": quick,
        "workload": {
            "generator": "maritime",
            "seed": 101,
            "n_vessels": 8 if quick else 16,
            "max_duration_s": 1800.0 if quick else 3600.0,
            "records": len(reports),
            "service_time_s": DEFAULT_SERVICE_S,
        },
        "arms": arms,
    }


def _arm(report: dict, name: str) -> dict:
    for arm in report["arms"]:
        if arm["name"] == name:
            return arm
    raise KeyError(f"no arm {name!r} in {report['experiment']}")


def batch_ratio(report: dict) -> float:
    """Throughput(batch 256) / throughput(batch 1) — the gated quantity."""
    return _arm(report, "batch256")["records_per_s"] / _arm(report, "batch1")["records_per_s"]


def normalized_batch256(report: dict) -> float:
    """Throughput(batch 256) / throughput(record) — host speed cancels.

    The per-record path is untouched by the columnar work, so this ratio
    isolates what the batch path gained, comparable across machines.
    """
    return _arm(report, "batch256")["records_per_s"] / _arm(report, "record")["records_per_s"]


def check_regression(current: dict, baseline: dict) -> list[str]:
    """Scale-free regression gates; returns human-readable failures."""
    failures = []
    current_ratio = batch_ratio(current)
    baseline_ratio = batch_ratio(baseline)
    floor = baseline_ratio * (1.0 - REGRESSION_TOLERANCE)
    if current_ratio < floor:
        failures.append(
            f"batch256/batch1 throughput ratio {current_ratio:.2f}x fell below "
            f"{floor:.2f}x (baseline {baseline_ratio:.2f}x - {REGRESSION_TOLERANCE:.0%})"
        )
    # The batch path must also not regress against the per-record path
    # measured in the *same* run (pure within-run comparison).
    record_rps = _arm(current, "record")["records_per_s"]
    batch_rps = _arm(current, "batch256")["records_per_s"]
    if batch_rps < record_rps * (1.0 - REGRESSION_TOLERANCE):
        failures.append(
            f"batch256 ({batch_rps:.0f} rec/s) slower than the per-record "
            f"path ({record_rps:.0f} rec/s) beyond the "
            f"{REGRESSION_TOLERANCE:.0%} tolerance"
        )
    return failures


def check_columnar_speedup(current: dict, pre_columnar: dict) -> list[str]:
    """The columnar core must hold its >=4.5x win over the archived row path.

    Deliberately an *absolute* throughput comparison —
    ``batch256_now >= 4.5 * batch256_pre_columnar`` — the one exception to
    the scale-free convention: the pre-columnar baseline is frozen, so a
    ratio re-measured against today's (also-optimized) scalar path would
    quietly move the goalposts. Valid as long as the gate runs on the
    same hardware class that produced the archive; the 25%-tolerance
    ratio gates absorb ordinary machine variance.
    """
    now = _arm(current, "batch256")["records_per_s"]
    then = _arm(pre_columnar, "batch256")["records_per_s"]
    floor = COLUMNAR_SPEEDUP_FLOOR * then
    if now < floor:
        return [
            f"columnar batch256 throughput {now:.0f} rec/s fell below "
            f"{floor:.0f} rec/s ({COLUMNAR_SPEEDUP_FLOOR:.1f}x the "
            f"pre-columnar baseline's {then:.0f} rec/s)"
        ]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-sized workloads")
    parser.add_argument(
        "--repeats",
        type=int,
        default=0,
        help="runs per arm, minimum reported (default: 5 quick, 3 full)",
    )
    parser.add_argument("--out-dir", default=RESULTS_DIR)
    parser.add_argument(
        "--skip-runtime",
        action="store_true",
        help="skip the multi-process E2b arms (fastest signal)",
    )
    parser.add_argument(
        "--skip-serving",
        action="store_true",
        help="skip the serving-tier E11 load arms",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail on >25%% ratio regression vs the committed baseline",
    )
    parser.add_argument("--baseline", default=BASELINE_PATH)
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="(re)write the baseline file from this run's measurements",
    )
    args = parser.parse_args()
    # Quick mode gets *more* repeats, not fewer: the quick workload is small
    # enough that each arm finishes in tens of milliseconds, and the min-of-N
    # noise floor needs ~5 rounds to converge on a shared single-core runner.
    repeats = args.repeats or (5 if args.quick else 3)

    os.makedirs(args.out_dir, exist_ok=True)
    reports = [
        run_e2_micro_batch(args.quick, repeats),
        run_e2_stage_share(args.quick, repeats),
    ]
    if not args.skip_runtime:
        reports.append(run_e2b_runtime(args.quick, args.out_dir))
    serving = None
    serving_failures: list[str] = []
    if not args.skip_serving:
        # collect() writes its own BENCH_e11_serving.json and evaluates
        # the E11 gate battery (SLO budgets, digest equality, cache hit
        # rate, overload shedding).
        serving, serving_failures = collect_serving(args.quick, out_dir=args.out_dir)

    for report in reports:
        path = os.path.join(args.out_dir, f"BENCH_{report['experiment']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")

    micro = reports[0]
    print(f"\nbatch256 vs batch1 throughput: {batch_ratio(micro):.2f}x")

    if args.write_baseline:
        os.makedirs(os.path.dirname(args.baseline), exist_ok=True)
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(micro, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote baseline {args.baseline}")
        if serving is not None:
            with open(E11_BASELINE_PATH, "w", encoding="utf-8") as fh:
                json.dump(serving, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote baseline {E11_BASELINE_PATH}")

    if args.check:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
        failures = check_regression(micro, baseline)
        failures.extend(serving_failures)
        if serving is not None and os.path.exists(E11_BASELINE_PATH):
            with open(E11_BASELINE_PATH, encoding="utf-8") as fh:
                e11_baseline = json.load(fh)
            failures.extend(check_serving_regression(serving, e11_baseline))
        columnar_note = ""
        if os.path.exists(PRE_COLUMNAR_BASELINE_PATH):
            with open(PRE_COLUMNAR_BASELINE_PATH, encoding="utf-8") as fh:
                pre_columnar = json.load(fh)
            failures.extend(check_columnar_speedup(micro, pre_columnar))
            speedup = _arm(micro, "batch256")["records_per_s"] / _arm(
                pre_columnar, "batch256"
            )["records_per_s"]
            columnar_note = (
                f"; columnar speedup {speedup:.2f}x vs pre-columnar "
                f"(floor {COLUMNAR_SPEEDUP_FLOOR:.1f}x)"
            )
        if failures:
            for failure in failures:
                print(f"FAIL {failure}")
            return 1
        print(
            f"regression gate OK (baseline ratio {batch_ratio(baseline):.2f}x, "
            f"tolerance {REGRESSION_TOLERANCE:.0%}{columnar_note})"
        )
    elif serving_failures:
        # The E11 gate battery (SLO, digest equality, cache hit rate,
        # shedding) is absolute — it fails the run even without --check.
        for failure in serving_failures:
            print(f"FAIL {failure}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
