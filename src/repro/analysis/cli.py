"""``python -m repro.analysis`` — the contract linter's command line.

Exit codes: ``0`` clean (suppressed/allowlisted hits are fine), ``1``
any open finding or unparseable file, ``2`` usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.analysis.cache import DEFAULT_CACHE_PATH
from repro.analysis.config import DEFAULT_CONFIG
from repro.analysis.engine import AnalysisResult, analyze_paths
from repro.analysis.rules import ALL_RULES, rule_ids


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "AST contract linter: determinism (D1-D3), snapshot coverage "
            "(C1), pickle safety (P1), metric naming (O1). "
            "See docs/static-analysis.md."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )
    parser.add_argument(
        "--rules",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="describe the rules and exit"
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print suppressed and allowlisted hits with their reasons",
    )
    parser.add_argument(
        "--graph",
        action="store_true",
        help=(
            "attach the taint-graph artifact (call edges, sources, taint "
            "chains, sink contexts) to the --json report"
        ),
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help=(
            "reuse per-file findings from the incremental cache "
            f"(default file: {DEFAULT_CACHE_PATH}); output is "
            "byte-identical to an uncached run"
        ),
    )
    parser.add_argument(
        "--cache-file",
        metavar="PATH",
        default=DEFAULT_CACHE_PATH,
        help="cache file location (implies nothing by itself; see --cache)",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help=(
            "lint only files whose content changed since the cached run "
            "(per-file rules only; implies --cache)"
        ),
    )
    return parser


def _render_human(result: AnalysisResult, show_suppressed: bool) -> str:
    lines: list[str] = []
    for finding in result.open_findings:
        lines.append(f"{finding.located()}: [{finding.rule}] {finding.message}")
    for error in result.errors:
        lines.append(f"error: {error}")
    if show_suppressed:
        for bucket, label in (
            (result.suppressed, "suppressed"),
            (result.allowlisted, "allowlisted"),
        ):
            for finding in bucket:
                lines.append(
                    f"{finding.located()}: [{finding.rule}] ({label}: "
                    f"{finding.reason}) {finding.message}"
                )
    lines.append(
        f"{len(result.files)} files scanned: "
        f"{len(result.open_findings)} open, "
        f"{len(result.suppressed)} suppressed, "
        f"{len(result.allowlisted)} allowlisted"
    )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.title}")
            print(f"    protects: {rule.protects}")
        print("S1  suppression comment without a reason (engine)")
        print("S2  suppression comment matching no finding (engine)")
        return 0
    rules = None
    if args.rules:
        wanted = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = sorted(set(wanted) - set(rule_ids()))
        if unknown:
            print(f"unknown rule ids: {', '.join(unknown)}", file=sys.stderr)
            return 2
        rules = [rule for rule in ALL_RULES if rule.rule_id in wanted]
    cache_path = args.cache_file if (args.cache or args.changed) else None
    result = analyze_paths(
        args.paths,
        config=DEFAULT_CONFIG,
        rules=rules,
        cache_path=cache_path,
        changed_only=args.changed,
        want_graph=args.graph,
    )
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        print(_render_human(result, args.show_suppressed))
        if result.cache_status:
            print(
                f"cache: {result.cache_status} "
                f"({result.cache_file_hits} file hits)",
                file=sys.stderr,
            )
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
