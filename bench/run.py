"""The repo benchmark's one command.

One workload, as the driver of ``BENCHMARK.json`` runs it — the last
line printed is the result object, and the exit code is 0 when every
check passed::

    python3 bench/run.py --workload ingest_dense --seed 101 --seconds 6 --trace 0

Every workload, each in a fresh interpreter, printed by name with units
and written as one JSON document (``--traced`` adds the per-layer run and
a span file per workload, ``--aa`` runs two sets of three and compares)::

    python3 bench/run.py [--seed N] [--seconds S] [--traced] [--out FILE]
    python3 bench/run.py --aa > bench/AA_REPORT.md

``python -m bench.run`` with ``PYTHONPATH=src`` is the same program.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "out")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Full suite runs per set of ``--aa``.
AA_SUITES = 3


def _bootstrap() -> dict:
    """Put the repository on ``sys.path`` and load the benchmark contract."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"bench: no program to measure — {src}/repro is missing")
    for path in (src, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        return json.load(source)


def _show(name: str, value: float, unit: str) -> None:
    print(f"  {name:<42} {value:>16.6g} {unit}")


# -- one workload ------------------------------------------------------------


def end_to_end(workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    """The untraced run: set up three times, measure, check, report."""
    from bench import ingest, serve, stats

    module = serve if workload in serve.KINDS else ingest
    setups: list[float] = []
    digests = set()
    state = None
    for __ in range(1 if tiny else SETUPS):
        if state is not None:
            module.teardown(state)
        started = perf_counter()
        state = module.setup(workload, seed, OUT_DIR, tiny)
        setups.append(perf_counter() - started)
        digests.add(state.stream.digest)
    try:
        if module is serve:
            measured = serve.measure(state, seconds, 100 if tiny else None)
        else:
            measured = ingest.measure(state, seconds)
    finally:
        module.teardown(state)
    failed = measured.failed
    if len(digests) != 1:
        # The same seed must give the same inputs.
        failed = measured.attempted
    latencies = sorted(measured.latencies_s)
    metrics = {
        "setup_s": stats.quartiles(setups)[1],
        "throughput_per_s": measured.throughput,
        "latency_p50_ms": stats.percentile(latencies, 0.50) * 1000.0,
        "peak_rss_mb": ingest.peak_rss_mb(workload),
    }
    walls = stats.summary(measured.wall_s)
    print(f"{workload} seed={seed} end to end (registry off)")
    print(
        f"  timed phase: n={walls['n']} median={walls['median']:.4f}s "
        f"q1={walls['q1']:.4f}s q3={walls['q3']:.4f}s; "
        f"latency samples={len(latencies)}; {measured.notes}"
    )
    return {"metrics": metrics, "attempted": measured.attempted, "failed": failed}


def traced(workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    """The traced run: the per-layer lap, spans written on the way out."""
    from bench import layers
    from bench.inputs import generate
    from bench.spans import Tracer

    tracer = Tracer()
    with tracer.span("sources.generate"):
        stream = generate(workload, seed, tiny)
    try:
        metrics, attempted, failed = layers.lap(
            workload, stream, seed, seconds, OUT_DIR, tiny, tracer
        )
    finally:
        tracer.write(os.path.join(OUT_DIR, f"trace_{workload}.jsonl"))
    print(f"{workload} seed={seed} per layer (traced), {len(tracer.spans)} spans")
    return {"metrics": metrics, "attempted": attempted, "failed": failed}


def run_workload(args: argparse.Namespace, contract: dict) -> int:
    """Contract mode: print the metrics, then the result object as the last line."""
    os.makedirs(OUT_DIR, exist_ok=True)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[section]}
    run = traced if args.trace else end_to_end
    result = run(args.workload, args.seed, args.seconds, args.tiny)
    if set(result["metrics"]) != set(units):
        raise SystemExit(
            f"bench: measured {sorted(set(result['metrics']) ^ set(units))} "
            "differ from BENCHMARK.json"
        )
    for name, unit in units.items():
        _show(name, result["metrics"][name], unit)
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, result["attempted"]),
                "failed": result["failed"],
                "metrics": {
                    name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


# -- every workload ----------------------------------------------------------


def _child(workload: str, args: argparse.Namespace, trace: int) -> dict:
    """One workload in a fresh interpreter; its result object."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(trace),
    ] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"bench: {workload} printed no result (exit {done.returncode})")
    print("\n".join(lines[:-1]), file=sys.stderr)
    return json.loads(lines[-1])


def run_suite(args: argparse.Namespace, contract: dict) -> dict:
    """Every workload of the contract, untraced and (``--traced``) traced."""
    document = {
        "schema": "bench.suite.v1",
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "claim": None,
        "workloads": {},
    }
    for spec in contract["workloads"]:
        name = spec["name"]
        entry = {"why": spec["why"], "end_to_end": _child(name, args, 0)}
        if args.traced:
            entry["per_layer"] = _child(name, args, 1)
        runs = [entry[key] for key in ("end_to_end", "per_layer") if key in entry]
        entry["failed_share"] = sum(r["failed"] for r in runs) / sum(
            r["attempted"] for r in runs
        )
        entry["correct"] = all(r["correct"] for r in runs)
        document["workloads"][name] = entry
    return document


def _write(document: dict, path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as sink:
        json.dump(document, sink, indent=1, sort_keys=True)
        sink.write("\n")


def run_aa(args: argparse.Namespace, contract: dict) -> int:
    """Two sets of the same commit; markdown to stdout, 1 if any gap exceeds its bound.

    A set is :data:`AA_SUITES` full suite runs and a pair compares their
    medians, as the driver compares medians: on a shared box about one
    run in twenty is 40 % slow for reasons outside the benchmark, and a
    single such run should not fail the comparison.
    """
    from bench import stats

    sets = [[run_suite(args, contract) for __ in range(AA_SUITES)] for __ in range(2)]
    _write({"first": sets[0], "second": sets[1]}, args.out)

    def median(suites: list[dict], workload: str, metric: str) -> float:
        cells = [s["workloads"][workload]["end_to_end"]["metrics"][metric] for s in suites]
        return stats.quartiles([cell["value"] for cell in cells])[1]

    over = 0
    print("# A/A report: two sets of runs of one commit\n")
    print(
        f"`python3 bench/run.py --aa --seed {args.seed} --seconds {args.seconds}` — each set "
        f"is {AA_SUITES} full suite runs and each value the median of its {AA_SUITES}; gap is "
        "|second − first| ÷ first; a pair fails when the gap exceeds the metric's "
        "bound in `BENCHMARK.json`.\n"
    )
    print("| workload | metric | unit | first | second | gap | bound | |")
    print("|---|---|---|---:|---:|---:|---:|---|")
    for workload in sets[0][0]["workloads"]:
        for metric in contract["end_to_end"]:
            x, y = (median(suites, workload, metric["name"]) for suites in sets)
            gap = abs(y - x) / x
            over += gap > metric["bound"]
            print(
                f"| {workload} | {metric['name']} | {metric['unit']} | {x:.5g} | {y:.5g} "
                f"| {gap:.3f} | {metric['bound']:.2f} | {'OVER' if gap > metric['bound'] else 'ok'} |"
            )
    failed = sorted(
        {
            name
            for suites in sets
            for suite in suites
            for name, entry in suite["workloads"].items()
            if not entry["correct"]
        }
    )
    print(f"\nfailed_share is 0 on every workload: {'no — ' + str(failed) if failed else 'yes'}")
    print(f"pairs over their bound: {over}")
    return 1 if over or failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload (contract mode)")
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="suite: add the traced runs")
    parser.add_argument("--aa", action="store_true", help="run two sets of suites and compare")
    parser.add_argument("--tiny", action="store_true", help="self-test size")
    parser.add_argument("--out", help="suite: where the JSON document goes")
    parser.add_argument("--serve-child", metavar="FILE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    contract = _bootstrap()
    if args.serve_child:
        from bench.serve import child_main

        child_main(args.serve_child)
        return 0
    if args.seconds is None:
        args.seconds = 0.1 if args.tiny else float(contract["run_seconds"])
    if args.workload:
        known = [w["name"] for w in contract["workloads"]]
        if args.workload not in known:
            parser.error(f"unknown workload {args.workload!r}; one of {known}")
        return run_workload(args, contract)
    if args.out is None:
        args.out = os.path.join(OUT_DIR, "aa.json" if args.aa else "result.json")
    if args.aa:
        return run_aa(args, contract)
    document = run_suite(args, contract)
    _write(document, args.out)
    for name, entry in document["workloads"].items():
        print(f"{name}: {'ok' if entry['correct'] else 'FAILED'}")
        for section in ("end_to_end", "per_layer"):
            for metric, cell in entry.get(section, {}).get("metrics", {}).items():
                _show(metric, cell["value"], cell["unit"])
    print(f"wrote {args.out}")
    return 0 if all(e["correct"] for e in document["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
