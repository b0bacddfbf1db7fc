"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``demo``        — run the end-to-end pipeline on a synthetic fleet and
  print the headline numbers (compression, latency, events).
- ``query``       — run a textual spatio-temporal query against a fleet
  freshly loaded into the store.
- ``scenarios``   — run the scripted threat scenarios through the
  recognition stack and print the scorecard.
- ``report``      — produce an HTML situation report (map + events).
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - imported lazily at run time
    from repro.core.pipeline import MobilityPipeline, PipelineResult
    from repro.sources.generators import TrafficSample


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="datAcron reproduction: mobility analytics pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="end-to-end pipeline demo")
    demo.add_argument("--vessels", type=int, default=12)
    demo.add_argument("--hours", type=float, default=2.0)
    demo.add_argument("--seed", type=int, default=7)

    query = sub.add_parser("query", help="run a textual query over a fleet")
    query.add_argument("text", help="the SELECT query (see repro.query.parser)")
    query.add_argument("--vessels", type=int, default=12)
    query.add_argument("--seed", type=int, default=7)
    query.add_argument("--limit", type=int, default=10, help="rows to print")

    sub.add_parser("scenarios", help="scripted threat scenario scorecard")

    report = sub.add_parser("report", help="write an HTML situation report")
    report.add_argument("--out", default="situation_report.html")
    report.add_argument("--vessels", type=int, default=12)
    report.add_argument("--seed", type=int, default=7)
    return parser


def _make_pipeline(
    vessels: int, seed: int, hours: float = 2.0
) -> "tuple[TrafficSample, MobilityPipeline, PipelineResult]":
    from repro.core.pipeline import MobilityPipeline
    from repro.sources.generators import MaritimeTrafficGenerator

    sample = MaritimeTrafficGenerator(seed=seed).generate(
        n_vessels=vessels, max_duration_s=hours * 3600.0
    )
    pipeline = MobilityPipeline(
        bbox=sample.world.bbox,
        registry=sample.registry,
        zones=sample.world.zones,
    )
    result = pipeline.run(sample.reports)
    return (sample, pipeline, result)


def cmd_demo(args: argparse.Namespace) -> int:
    """Run the end-to-end pipeline demo; prints headline numbers."""
    sample, pipeline, result = _make_pipeline(args.vessels, args.seed, args.hours)
    print(f"vessels            : {sample.n_entities}")
    print(f"reports            : {result.reports_in}")
    print(f"compression        : {result.compression_ratio:.1%}")
    print(f"triples stored     : {result.triples_stored}")
    print(f"simple events      : {len(result.simple_events)}")
    print(f"complex events     : {len(result.complex_events)}")
    print(f"latency p50 / p95  : {result.end_to_end['p50_ms']:.3f} / "
          f"{result.end_to_end['p95_ms']:.3f} ms")
    print(f"throughput         : {result.throughput_rps:,.0f} reports/s")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """Parse and execute a textual query; prints rows and the plan report."""
    from repro.query.parser import QueryParseError, parse_query

    try:
        query = parse_query(args.text)
    except QueryParseError as error:
        print(f"query error: {error}", file=sys.stderr)
        return 2
    __, pipeline, __r = _make_pipeline(args.vessels, args.seed)
    rows, report = pipeline.executor.execute(query)
    print(f"{len(rows)} rows "
          f"(scanned {report.partitions_scanned}/{report.partitions_total} "
          f"partitions, pruning {report.pruning_ratio:.0%}, "
          f"strategy {report.strategy})")
    for row in rows[: args.limit]:
        print("  " + "  ".join(f"{var}={term}" for var, term in row.items()))
    if len(rows) > args.limit:
        print(f"  ... {len(rows) - args.limit} more")
    return 0


def cmd_scenarios(__args: argparse.Namespace) -> int:
    """Run the scripted threat scenarios and print the scorecard."""
    from repro.cep.detectors import (
        CollisionRiskDetector,
        LoiteringDetector,
        RendezvousDetector,
    )
    from repro.cep.evaluation import match_events, promote
    from repro.cep.simple import SimpleEventExtractor
    from repro.model.points import Domain
    from repro.sources.scenarios import (
        aviation_near_miss_scenario,
        collision_course_scenario,
        loitering_scenario,
        rendezvous_scenario,
        zone_intrusion_scenario,
    )

    print(f"{'scenario':<18} {'recall':>7} {'precision':>10} {'latency':>9}")
    for scenario in (
        collision_course_scenario(),
        loitering_scenario(),
        zone_intrusion_scenario(),
        rendezvous_scenario(),
        aviation_near_miss_scenario(),
    ):
        extractor = SimpleEventExtractor(zones=scenario.zones)
        if scenario.domain is Domain.AVIATION:
            collision = CollisionRiskDetector(
                cpa_threshold_m=9_000.0,
                vertical_threshold_m=300.0,
                tcpa_threshold_s=600.0,
                candidate_radius_m=150_000.0,
            )
        else:
            collision = CollisionRiskDetector()
        loitering = LoiteringDetector(radius_m=800.0, min_duration_s=900.0)
        rendezvous = RendezvousDetector(radius_m=600.0, min_duration_s=600.0)
        detections = []
        for report in scenario.reports:
            detections.extend(collision.process(report))
            detections.extend(loitering.process(report))
            for event in extractor.process(report):
                detections.extend(rendezvous.process(event))
                if event.event_type.startswith("zone"):
                    detections.append(promote(event))
            detections.extend(rendezvous.tick(report.t))
        expected_types = {e.event_type for e in scenario.expected}
        scripted = {e for exp in scenario.expected for e in exp.entity_ids}
        scoped = [
            d for d in detections
            if set(d.entity_ids) <= scripted and d.event_type in expected_types
        ]
        score = match_events(scoped, scenario.expected)
        print(f"{scenario.name:<18} {score.recall:>7.2f} {score.precision:>10.2f} "
              f"{score.mean_latency_s:>8.0f}s")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Generate and save an HTML situation report."""
    from repro.viz.report import HtmlReport
    from repro.viz.svg import SvgMap

    sample, pipeline, result = _make_pipeline(args.vessels, args.seed)
    svg = SvgMap(sample.world.bbox, width_px=860)
    for zone in sample.world.zones:
        svg.add_zone(zone)
    svg.add_trajectories(sample.truth.values())
    for event in result.complex_events[:100]:
        svg.add_event(event)

    from repro.viz.density import temporal_profile

    report = HtmlReport("datAcron situation report")
    report.add_stat("vessels", sample.n_entities)
    report.add_stat("reports", result.reports_in)
    report.add_stat("compression", result.compression_ratio)
    report.add_stat("complex events", len(result.complex_events))
    report.add_stat("p95 latency (ms)", result.end_to_end["p95_ms"])
    report.set_map(svg.render())
    report.add_timeline(temporal_profile(sample.reports, bucket_s=300.0))
    report.add_events(result.complex_events)
    report.save(args.out)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "demo": cmd_demo,
    "query": cmd_query,
    "scenarios": cmd_scenarios,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
