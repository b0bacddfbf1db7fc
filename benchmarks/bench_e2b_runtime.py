"""E2b (runtime) — real multi-process speedup of the sharded pipeline.

The stream is sharded by entity key, as a keyed streaming job would be,
and ``repro.runtime`` executes the full pipeline across worker
*processes* with bounded queues and checkpoints; the wall clock — spawn,
IPC, merge, everything — is the measurement.

Workload model: each record pays ``--service-ms`` of downstream service
wait inside its worker (the remote-store/network RTT of the deployed
system; see :attr:`repro.runtime.WorkerSpec.service_time_s`). Those
waits overlap across processes, which is exactly the regime the paper's
distributed deployment exploits — and the only honest one on a
single-core CI box, where pure-CPU sharding cannot beat one process
(the GIL is not the bottleneck, the core count is). With
``--service-ms 0`` the same harness measures the pure-CPU regime, which
is expected to show ~1x on one core and scale only with real cores.

Artifacts land in ``benchmarks/results/``:

- ``e2b_runtime.txt`` — the table (workers, wall_s, speedup, skew);
- ``e2b_runtime.json`` — the merged :meth:`RuntimeResult.as_dict` of the
  widest run plus the per-arm measurements.

Standalone::

    PYTHONPATH=src python -m benchmarks.bench_e2b_runtime [--smoke]
"""

import argparse
import json
import os
import time

from benchmarks.conftest import RESULTS_DIR, emit_table
from repro.core.pipeline import PipelineSpec
from repro.runtime import RuntimeConfig, Supervisor
from repro.runtime.sharding import ShardRouter
from repro.sources.generators import MaritimeTrafficGenerator

#: Downstream service wait per record (remote-store RTT model), seconds.
DEFAULT_SERVICE_S = 0.001
#: Full-mode gate: wall-clock speedup at 4 workers vs 1 (ISSUE acceptance).
FULL_SPEEDUP_GATE = 1.8
#: Smoke-mode gate: 2 workers on a small stream, loose enough for CI noise.
SMOKE_SPEEDUP_GATE = 1.2


def make_workload(smoke: bool):
    """A multi-entity stream that shards evenly (measured skew ~1.0 at 4)."""
    if smoke:
        sample = MaritimeTrafficGenerator(seed=101).generate(
            n_vessels=8, max_duration_s=1800.0
        )
    else:
        sample = MaritimeTrafficGenerator(seed=101).generate(
            n_vessels=16, max_duration_s=3600.0
        )
    reports = sorted(sample.reports, key=lambda r: r.t)
    spec = PipelineSpec(
        bbox=sample.world.bbox,
        registry=sample.registry,
        zones=tuple(sample.world.zones),
    )
    return spec, reports


def run_arm(spec, reports, n_workers: int, service_s: float):
    """One measured run at ``n_workers``; returns ``(result, wall_s)``."""
    config = RuntimeConfig(
        n_workers=n_workers,
        checkpoint_interval=2000,
        service_time_s=service_s,
    )
    started = time.perf_counter()
    result = Supervisor(spec, config).run(reports)
    return result, time.perf_counter() - started


def collect(spec, reports, worker_counts, service_s, out_dir=RESULTS_DIR):
    """Run every arm, emit the table + JSON, return the per-arm report."""
    rows = []
    arms = {}
    baseline_s = None
    widest = None
    for n_workers in worker_counts:
        result, wall_s = run_arm(spec, reports, n_workers, service_s)
        if baseline_s is None:
            baseline_s = wall_s
        skew = ShardRouter(n_workers).skew(reports)
        rows.append([
            n_workers,
            result.workers_spawned,
            result.reports_in,
            result.reports_kept,
            skew,
            wall_s,
            result.reports_in / wall_s,
            baseline_s / wall_s,
        ])
        arms[n_workers] = {
            "wall_s": wall_s,
            "speedup_vs_1": baseline_s / wall_s,
            "skew": skew,
            "summary": result.summary(),
        }
        widest = result
    emit_table(
        "e2b_runtime",
        "E2b (runtime): real multi-process pipeline, "
        f"{service_s * 1000.0:.1f} ms service wait per record",
        ["workers", "spawned", "records", "kept", "skew",
         "wall_s", "records_per_s", "speedup_vs_1"],
        rows,
    )
    os.makedirs(out_dir, exist_ok=True)
    report = {
        "experiment": "e2b_runtime",
        "service_time_s": service_s,
        "records": len(reports),
        "arms": {str(k): v for k, v in arms.items()},
        "widest_run": widest.as_dict(),
    }
    with open(os.path.join(out_dir, "e2b_runtime.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report, rows


def check_invariants(rows) -> list[str]:
    """Counts sharding must preserve, identical across all arms."""
    failures = []
    if len({row[2] for row in rows}) != 1:
        failures.append(f"reports_in varies across arms: {rows}")
    if len({row[3] for row in rows}) != 1:
        failures.append(f"reports_kept varies across arms: {rows}")
    return failures


def test_e2b_runtime_real_speedup():
    """Real processes beat one process when service waits can overlap."""
    spec, reports = make_workload(smoke=True)
    report, rows = collect(spec, reports, (1, 2), DEFAULT_SERVICE_S)
    assert not check_invariants(rows)
    assert report["arms"]["2"]["speedup_vs_1"] >= SMOKE_SPEEDUP_GATE


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload, 2 workers (CI; gate at "
        f"{SMOKE_SPEEDUP_GATE}x)",
    )
    parser.add_argument(
        "--service-ms",
        type=float,
        default=DEFAULT_SERVICE_S * 1000.0,
        help="downstream service wait per record, in ms",
    )
    parser.add_argument("--out-dir", default=RESULTS_DIR)
    args = parser.parse_args()

    service_s = args.service_ms / 1000.0
    spec, reports = make_workload(args.smoke)
    worker_counts = (1, 2) if args.smoke else (1, 2, 4)
    report, rows = collect(
        spec, reports, worker_counts, service_s, out_dir=args.out_dir
    )

    failures = check_invariants(rows)
    top = str(worker_counts[-1])
    speedup = report["arms"][top]["speedup_vs_1"]
    gate = SMOKE_SPEEDUP_GATE if args.smoke else FULL_SPEEDUP_GATE
    print(f"\nE2b runtime speedup at {top} workers: {speedup:.2f}x (gate {gate}x)")
    if speedup < gate:
        failures.append(f"speedup {speedup:.2f}x below the {gate}x gate")
    if failures:
        for failure in failures:
            print(f"FAIL {failure}")
        return 1
    print("E2b runtime invariants and speedup gate: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
