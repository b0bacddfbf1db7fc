"""Contract linter: AST-enforced determinism and checkpoint invariants.

The reproduction's headline guarantees — byte-identical crash-resume
(PR 1/3/4), hash-seed independence (PR 3) and millisecond latency
accounting (PR 2) — rest on code-level invariants that no test can see
locally: a single unseeded ``random.random()`` call, a builtin
``hash()`` in a routing path, or one field missing from an operator's
``snapshot()`` dict silently breaks a contract that only manifests as a
flaky differential test three layers away. This package checks those
invariants mechanically, the way production stream stacks (Flink /
Spark lineage) enforce their serialization and determinism contracts.

Rules (see ``docs/static-analysis.md`` for rationale and examples):

- **D1** — builtin ``hash()`` is banned in ``src/``; use
  :func:`repro.hashing.stable_hash` (PYTHONHASHSEED independence).
- **D2** — no unseeded RNG (``random.Random()``, module-level
  ``random.*`` / ``numpy.random.*`` calls) in the deterministic paths
  (``repro.core``, ``repro.runtime``, ``repro.streams``, ``repro.cep``,
  ``repro.insitu``).
- **D3** — no wall-clock reads (``time.time``, ``perf_counter``,
  ``datetime.now``…) outside ``repro.obs``; measurement code uses
  :func:`repro.obs.clock.monotonic`.
- **D4** — *whole-program*: no deterministic-scope function may reach a
  nondeterminism source (clock, unseeded RNG, ``hash``, ``os.environ``)
  **transitively**, at any call depth; findings print the full call
  chain down to the source (:mod:`repro.analysis.dataflow`).
- **D5** — *whole-program*: no unordered ``set``/``dict`` iteration may
  flow into persisted or emitted output (``snapshot()`` payloads,
  canonical digests, RDF emission) — wrap in ``sorted(...)``.
- **C1** — snapshot coverage: every class with a ``snapshot``/
  ``restore`` pair must reference each mutable field in both; stateful
  operators must define (or correctly inherit) the pair.
- **P1** — pickle safety: no lambdas / nested functions flowing into
  ``PipelineSpec`` / ``WorkerSpec`` construction (workers are spawned).
- **P2** — *whole-program*: no module-level mutable global may be
  mutated by code reachable from a worker entrypoint (fork/spawn
  divergence: each worker mutates its own module copy).
- **O1** — metric and span name literals follow the dotted-lowercase
  convention of :mod:`repro.obs`.

Plus two engine-level hygiene rules: **S1** (a suppression comment must
carry a reason) and **S2** (a suppression must match a finding).

Findings are suppressed inline with a reasoned comment on the offending
line (or the line above)::

    value = hash(key)  # lint: allow[D1] interning cache, never persisted

or path-allowlisted in :data:`repro.analysis.config.DEFAULT_CONFIG`
(every entry carries a reason string). The CLI —
``python -m repro.analysis src/`` — exits non-zero on any unsuppressed
finding and emits human or ``--json`` output (``--graph`` attaches the
taint-graph artifact, ``--cache``/``--changed`` enable the incremental
cache); the ``static-analysis`` CI job runs it next to mypy over the
typed core.

The static rules have a dynamic twin:
:func:`repro.analysis.sanitizer.determinism_sanitizer` patches ambient
clock/RNG entry points to raise inside the differential suites, proving
at runtime what D4 claims statically.
"""

from repro.analysis.config import AllowEntry, AnalysisConfig, DEFAULT_CONFIG
from repro.analysis.engine import AnalysisResult, analyze_paths
from repro.analysis.findings import Finding
from repro.analysis.rules import ALL_RULES, rule_ids
from repro.analysis.sanitizer import DeterminismViolation, determinism_sanitizer

__all__ = [
    "AllowEntry",
    "AnalysisConfig",
    "AnalysisResult",
    "DEFAULT_CONFIG",
    "DeterminismViolation",
    "Finding",
    "ALL_RULES",
    "determinism_sanitizer",
    "rule_ids",
    "analyze_paths",
]
