"""Incremental linter cache (``.repro-analysis-cache.json``).

The engine splits rules into two tiers:

- **local** rules (D1–D3, C1, P1, O1) read one file at a time, so
  their raw findings are a pure function of that file's bytes and the
  policy. They are cached **per file**, keyed on the content's sha256.
- **cross-module** rules (D4/D5/P2 via the program model) can change
  when *any* file changes, so their findings
  are cached under one **project hash** — the digest of every file's
  digest.

Every entry is guarded by a **policy fingerprint** covering the JSON
schema version, the active rule ids, the config (scopes + allowlists),
and the source bytes of the ``repro.analysis`` package itself: editing
a rule, a scope, or the engine invalidates the whole cache rather than
serving findings a different linter produced.

Cache hits and misses never change output: a warm run must be
byte-identical to a cold one (pinned by a test), which is why hit/miss
counters live on the result object but stay out of ``as_dict()``.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.analysis.findings import Finding
from repro.analysis.source import Suppression

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.config import AnalysisConfig
    from repro.analysis.rules.base import Rule

CACHE_VERSION = "repro.analysis.cache.v1"
DEFAULT_CACHE_PATH = ".repro-analysis-cache.json"


def file_sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def project_sha(file_hashes: Mapping[str, str]) -> str:
    """One digest over every file's digest, order-independent."""
    digest = hashlib.sha256()
    for path in sorted(file_hashes):
        digest.update(path.encode("utf-8"))
        digest.update(b"\0")
        digest.update(file_hashes[path].encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def _analysis_package_sha() -> str:
    """Digest of the linter's own source: new linter, new cache."""
    pkg_dir = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(pkg_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            full = os.path.join(dirpath, name)
            digest.update(os.path.relpath(full, pkg_dir).encode("utf-8"))
            with open(full, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def policy_fingerprint(
    config: "AnalysisConfig", rules: Sequence["Rule"]
) -> str:
    from repro.analysis.engine import JSON_SCHEMA_VERSION

    payload = "\n".join(
        [
            CACHE_VERSION,
            JSON_SCHEMA_VERSION,
            ",".join(sorted(rule.rule_id for rule in rules)),
            repr(config),
            _analysis_package_sha(),
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def finding_to_dict(f: Finding) -> dict:
    """Lossless wire form (unlike ``Finding.as_dict``, keeps empties)."""
    return {
        "rule": f.rule,
        "path": f.path,
        "line": f.line,
        "col": f.col,
        "message": f.message,
        "detail": f.detail,
    }


def finding_from_dict(d: Mapping) -> Finding:
    return Finding(
        rule=d["rule"],
        path=d["path"],
        line=d["line"],
        col=d["col"],
        message=d["message"],
        detail=d["detail"],
    )


def suppression_to_dict(s: Suppression) -> dict:
    return {"rule": s.rule, "detail": s.detail, "reason": s.reason, "line": s.line}


def suppression_from_dict(d: Mapping) -> Suppression:
    return Suppression(
        rule=d["rule"], detail=d["detail"], reason=d["reason"], line=d["line"]
    )


def load_cache(path: str, fingerprint: str) -> dict:
    """Load the cache, or a fresh skeleton on any mismatch or damage."""
    fresh = {
        "version": CACHE_VERSION,
        "fingerprint": fingerprint,
        "files": {},
        "project": {},
    }
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return fresh
    if not isinstance(data, dict):
        return fresh
    if data.get("version") != CACHE_VERSION:
        return fresh
    if data.get("fingerprint") != fingerprint:
        return fresh
    if not isinstance(data.get("files"), dict) or not isinstance(
        data.get("project"), dict
    ):
        return fresh
    return data


def store_cache(path: str, cache: dict) -> None:
    """Atomic, sorted write; failures are silent (a cache is advisory)."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(cache, fh, sort_keys=True, separators=(",", ":"))
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
