"""The linter engine: file discovery, rule dispatch, suppression triage.

Findings end up in one of three buckets:

- **open** — unsuppressed violations; any of these makes the run fail;
- **suppressed** — matched by a reasoned inline ``lint: allow`` comment;
- **allowlisted** — the module path is exempted for that rule in the
  :class:`~repro.analysis.config.AnalysisConfig` (reason recorded).

The engine also polices the suppressions themselves: an ``allow``
without a reason is an **S1** finding (and suppresses nothing); an
``allow`` that matched no finding is an **S2** finding, so a fixed
violation cannot leave its suppression behind.

Rules come in two tiers. Per-file rules see one module at a time;
**cross-module** rules (``cross_module``/``whole_program``) additionally
read the :class:`~repro.analysis.dataflow.ProgramModel` the engine
builds once per run. The split also drives the incremental
cache (:mod:`repro.analysis.cache`): per-file findings are reusable when
that file's bytes are unchanged, cross-module findings only when *no*
file changed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.dataflow import ProgramModel

from repro.analysis.classindex import ClassIndex
from repro.analysis.config import DEFAULT_CONFIG, AnalysisConfig
from repro.analysis.findings import Finding
from repro.analysis.rules import ALL_RULES
from repro.analysis.rules.base import Rule
from repro.analysis.source import ParsedModule, Suppression, parse_module

JSON_SCHEMA_VERSION = "repro.analysis.v1"


@dataclass
class AnalysisResult:
    """Everything one linter run produced."""

    root: str
    files: list[str] = field(default_factory=list)
    open_findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    allowlisted: list[Finding] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    #: Taint-graph artifact (``--graph``); ``None`` unless requested.
    graph: dict | None = None
    #: Cache telemetry — never serialized, so warm and cold runs emit
    #: byte-identical JSON: "" (cache off), "cold", "partial", or "hit".
    cache_status: str = ""
    cache_file_hits: int = 0

    @property
    def ok(self) -> bool:
        return not self.open_findings and not self.errors

    def as_dict(self) -> dict:
        out = {
            "version": JSON_SCHEMA_VERSION,
            "root": self.root,
            "files_scanned": len(self.files),
            "counts": {
                "open": len(self.open_findings),
                "suppressed": len(self.suppressed),
                "allowlisted": len(self.allowlisted),
            },
            "findings": [f.as_dict() for f in self.open_findings],
            "suppressed": [f.as_dict() for f in self.suppressed],
            "allowlisted": [f.as_dict() for f in self.allowlisted],
            "errors": list(self.errors),
        }
        if self.graph is not None:
            out["graph"] = self.graph
        return out


def _iter_py_files(paths: Sequence[str]) -> Iterable[str]:
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
        else:
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d != "__pycache__" and not d.startswith(".")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        yield os.path.join(dirpath, name)


def _module_path(abspath: str, root: str) -> str:
    """Stable posix path for scoping: prefer the ``repro/…`` suffix."""
    posix = abspath.replace(os.sep, "/")
    marker = "/repro/"
    idx = posix.rfind(marker)
    if idx >= 0:
        return posix[idx + 1 :]
    rel = os.path.relpath(abspath, root)
    return rel.replace(os.sep, "/")


def _sort_key(finding: Finding) -> tuple:
    return (finding.path, finding.line, finding.rule, finding.detail)


def _triage_module(
    result: AnalysisResult,
    path: str,
    raw: Sequence[Finding],
    suppressions: Sequence[Suppression],
    config: AnalysisConfig,
    active_ids: set[str],
) -> None:
    """Sort raw findings into open/suppressed/allowlisted; police allows."""
    for f in raw:
        entry = config.allowlisted(f.rule, path)
        if entry is not None:
            result.allowlisted.append(
                Finding(
                    rule=f.rule,
                    path=f.path,
                    line=f.line,
                    col=f.col,
                    message=f.message,
                    detail=f.detail,
                    reason=entry.reason,
                )
            )
            continue
        suppression = next(
            (s for s in suppressions if s.matches(f.rule, f.line, f.detail)),
            None,
        )
        if suppression is None:
            result.open_findings.append(f)
        else:
            suppression.used = True
            result.suppressed.append(
                Finding(
                    rule=f.rule,
                    path=f.path,
                    line=f.line,
                    col=f.col,
                    message=f.message,
                    detail=f.detail,
                    reason=suppression.reason,
                )
            )

    for s in suppressions:
        if not s.reason:
            result.open_findings.append(
                Finding(
                    rule="S1",
                    path=path,
                    line=s.line,
                    message=(
                        f"suppression allow[{s.rule}] carries no reason; "
                        "reasonless suppressions are inert — state why "
                        "the hit is acceptable"
                    ),
                    detail=s.rule,
                )
            )
        elif not s.used and s.rule in active_ids:
            result.open_findings.append(
                Finding(
                    rule="S2",
                    path=path,
                    line=s.line,
                    message=(
                        f"suppression allow[{s.rule}"
                        + (f":{s.detail}" if s.detail else "")
                        + "] matches no finding; delete the stale comment"
                    ),
                    detail=s.rule,
                )
            )


def _run_rules(
    rules: Sequence[Rule],
    module: ParsedModule,
    index: ClassIndex,
    config: AnalysisConfig,
) -> list[Finding]:
    """All in-scope raw findings for one module (pre-triage)."""
    raw: list[Finding] = []
    for rule in rules:
        if not config.in_scope(rule.rule_id, module.path):
            continue
        raw.extend(rule.check(module, index))
    return raw


def _build_program(
    rules: Sequence[Rule],
    modules: Sequence[ParsedModule],
    index: ClassIndex,
    config: AnalysisConfig,
    want_graph: bool,
) -> "ProgramModel | None":
    """Build the call-graph/taint model once; hand it to D4/D5/P2."""
    targets = [rule for rule in rules if rule.whole_program]
    if not targets and not want_graph:
        return None
    from repro.analysis.dataflow import ProgramModel

    program = ProgramModel(modules, index, config)
    for rule in targets:
        rule.prepare(program)
    return program


def analyze_paths(
    paths: Sequence[str],
    config: AnalysisConfig | None = None,
    rules: Sequence[Rule] | None = None,
    *,
    cache_path: str | None = None,
    changed_only: bool = False,
    want_graph: bool = False,
) -> AnalysisResult:
    """Lint ``paths`` (files or directory trees) and triage the findings.

    ``cache_path`` enables the incremental cache; ``changed_only``
    restricts the run to files whose content hash differs from the cache
    (per-file rules only — cross-module rules need the whole program).
    ``want_graph`` attaches the taint-graph artifact to the result.
    """
    config = config if config is not None else DEFAULT_CONFIG
    rules = tuple(rules) if rules is not None else ALL_RULES
    root = os.path.abspath(paths[0] if paths else ".")
    result = AnalysisResult(root=root)

    local_rules = tuple(
        r for r in rules if not r.cross_module and not r.whole_program
    )
    global_rules = tuple(r for r in rules if r.cross_module or r.whole_program)

    # ---- discovery + content hashing -----------------------------------
    from repro.analysis.cache import file_sha  # cheap, stdlib-only

    sources: list[tuple[str, str, str, str]] = []  # abspath, rel, text, sha
    for abspath in _iter_py_files([os.path.abspath(p) for p in paths]):
        rel = _module_path(abspath, root)
        try:
            with open(abspath, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            result.errors.append(f"{rel}: {exc}")
            continue
        sources.append((abspath, rel, text, file_sha(text)))

    cache: dict | None = None
    if cache_path is not None:
        from repro.analysis import cache as cache_mod

        fingerprint = cache_mod.policy_fingerprint(config, rules)
        cache = cache_mod.load_cache(cache_path, fingerprint)

    if changed_only:
        cached_files = cache["files"] if cache is not None else {}
        sources = [
            s for s in sources if cached_files.get(s[1], {}).get("hash") != s[3]
        ]
        # Cross-module rules need every module; in changed mode they are
        # skipped, and dropping them from active_ids keeps their still-
        # valid suppressions from tripping S2.
        global_rules = ()

    active_ids = {r.rule_id for r in (*local_rules, *global_rules)}
    file_hashes = {rel: sha for _, rel, _, sha in sources}

    # ---- full cache hit: reconstruct without parsing a single file -----
    if cache is not None and not changed_only and not want_graph:
        hit = _reconstruct_from_cache(
            result, cache, sources, file_hashes, config, active_ids
        )
        if hit:
            result.cache_status = "hit"
            result.cache_file_hits = len(sources)
            result.open_findings.sort(key=_sort_key)
            result.suppressed.sort(key=_sort_key)
            result.allowlisted.sort(key=_sort_key)
            return result

    # ---- parse ---------------------------------------------------------
    from repro.analysis.cache import (
        finding_from_dict,
        finding_to_dict,
        project_sha,
        store_cache,
        suppression_to_dict,
    )

    modules: list[tuple[ParsedModule, str]] = []  # module, sha
    error_entries: dict[str, dict] = {}
    index = ClassIndex()
    for abspath, rel, text, sha in sources:
        try:
            module = parse_module(abspath, rel, text)
        except (SyntaxError, ValueError) as exc:
            message = f"{rel}: {exc}"
            result.errors.append(message)
            error_entries[rel] = {
                "hash": sha,
                "error": message,
                "findings": [],
                "suppressions": [],
            }
            continue
        modules.append((module, sha))
        index.add_module(rel, module.tree)
        result.files.append(rel)

    program = _build_program(
        global_rules, [m for m, _ in modules], index, config, want_graph
    )
    if want_graph and program is not None:
        result.graph = program.graph_json()

    # ---- per-module rule dispatch + triage -----------------------------
    cached_files = cache["files"] if cache is not None else {}
    new_entries: dict[str, dict] = dict(error_entries)
    global_by_path: dict[str, list[dict]] = {}
    for module, sha in modules:
        entry = cached_files.get(module.path)
        if (
            entry is not None
            and entry.get("hash") == sha
            and not entry.get("error")
        ):
            local_raw = [finding_from_dict(d) for d in entry["findings"]]
            result.cache_file_hits += 1
        else:
            local_raw = _run_rules(local_rules, module, index, config)
        global_raw = _run_rules(global_rules, module, index, config)
        _triage_module(
            result,
            module.path,
            [*local_raw, *global_raw],
            module.suppressions,
            config,
            active_ids,
        )
        if cache is not None:
            new_entries[module.path] = {
                "hash": sha,
                "error": "",
                "findings": [finding_to_dict(f) for f in local_raw],
                "suppressions": [
                    suppression_to_dict(s) for s in module.suppressions
                ],
            }
            if global_raw:
                global_by_path[module.path] = [
                    finding_to_dict(f) for f in global_raw
                ]

    # ---- cache write ---------------------------------------------------
    if cache is not None and cache_path is not None:
        if changed_only:
            cache["files"].update(new_entries)
        else:
            kept = {
                p: e for p, e in cache["files"].items() if p in file_hashes
            }
            kept.update(new_entries)
            cache["files"] = kept
            cache["project"] = {
                "hash": project_sha(file_hashes),
                "findings": global_by_path,
            }
        store_cache(cache_path, cache)
        if not result.cache_status:
            if changed_only:
                result.cache_status = "changed"
            else:
                result.cache_status = (
                    "partial" if result.cache_file_hits else "cold"
                )

    result.open_findings.sort(key=_sort_key)
    result.suppressed.sort(key=_sort_key)
    result.allowlisted.sort(key=_sort_key)
    return result


def _reconstruct_from_cache(
    result: AnalysisResult,
    cache: dict,
    sources: Sequence[tuple[str, str, str, str]],
    file_hashes: dict[str, str],
    config: AnalysisConfig,
    active_ids: set[str],
) -> bool:
    """Rebuild the whole result from cache when *nothing* changed.

    Returns False (leaving ``result`` untouched) unless the cached file
    set, every per-file hash, and the project hash all match.
    """
    from repro.analysis.cache import (
        finding_from_dict,
        project_sha,
        suppression_from_dict,
    )

    cached_files = cache.get("files", {})
    project = cache.get("project", {})
    if set(cached_files) != set(file_hashes):
        return False
    if any(
        cached_files[p].get("hash") != file_hashes[p] for p in file_hashes
    ):
        return False
    if project.get("hash") != project_sha(file_hashes):
        return False

    global_by_path = project.get("findings", {})
    for _abspath, rel, _text, _sha in sources:
        entry = cached_files[rel]
        if entry.get("error"):
            result.errors.append(entry["error"])
            continue
        result.files.append(rel)
        raw = [finding_from_dict(d) for d in entry["findings"]]
        raw.extend(
            finding_from_dict(d) for d in global_by_path.get(rel, ())
        )
        suppressions = [
            suppression_from_dict(d) for d in entry["suppressions"]
        ]
        _triage_module(result, rel, raw, suppressions, config, active_ids)
    return True
