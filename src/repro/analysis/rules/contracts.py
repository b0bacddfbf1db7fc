"""C1: checkpoint coverage for the state the pipeline pickles.

The recovery contract — crash-resume byte-identical to an uninterrupted
run — holds only if a checkpoint captures *all* of the run's mutable
state. There is one checkpoint protocol:
:meth:`repro.core.pipeline.MobilityPipeline.snapshot` pickles every
component its ``_STATEFUL_COMPONENTS`` literal names and ``restore()``
unpickles them. Components pickle whole, except those whose append-only
state writes its own ``__getstate__``/``__setstate__``. A field added but
forgotten in either place is invisible to every unit test that doesn't
crash at exactly the right record; this rule makes the omission a lint
error instead.

What counts as **mutable state**: a field assigned in ``__init__`` and
then written again outside it — rebound, aug-assigned, item-assigned,
deleted, or mutated through a known container method
(:data:`repro.analysis.classindex.MUTATOR_METHODS`). Writes inside the
checkpoint methods themselves do not count.

Checked shapes:

- **the component list.** A class declaring ``_STATEFUL_COMPONENTS``
  also declares ``_NOT_CHECKPOINTED``, a dict literal mapping each
  ``__init__`` field it deliberately leaves out (configuration, derived
  state, per-record transients) to a one-line reason. Every field
  ``__init__`` assigns must be in exactly one of the two;
- **hand-written pickle state.** A class defining only one of
  ``__getstate__``/``__setstate__`` is a finding. In a class defining
  both, every mutable field must be covered: referenced by
  ``__getstate__``, or re-established by ``__setstate__`` (assigned
  there, or ``__setstate__`` calls ``__init__``);
- ``snapshot()``/``restore()`` come as a pair, and a pair not driven by
  ``_STATEFUL_COMPONENTS`` must reference each mutable field in both.

Blind spot: :class:`repro.model.reports.PositionReport` assigns its
state functions to the class after creation (a frozen slots dataclass
overwrites class-body ones), so a rule reading class bodies cannot see
them.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable

from repro.analysis.classindex import (
    ClassInfo,
    mutated_self_attrs,
    referenced_self_attrs,
)
from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.classindex import ClassIndex
    from repro.analysis.source import ParsedModule


def _calls_init(func: ast.FunctionDef) -> bool:
    """``__init__`` called anywhere in the body (``Cls.__init__(self)`` etc.)."""
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__init__"
        for node in ast.walk(func)
    )


class SnapshotCoverageRule(Rule):
    rule_id = "C1"
    title = "checkpoints must cover every mutable field"
    protects = "PR 1/3: crash-resume byte-identical to an uninterrupted run"

    def check(self, module: "ParsedModule", index: "ClassIndex") -> Iterable[Finding]:
        for info in index.by_module.get(module.path, ()):
            yield from self._check_class(module, info)

    def _check_class(self, module: "ParsedModule", info: ClassInfo) -> Iterable[Finding]:
        paired: dict[str, tuple[ast.FunctionDef, ast.FunctionDef]] = {}
        for save, load in (("snapshot", "restore"), ("__getstate__", "__setstate__")):
            if save in info.methods and load in info.methods:
                pair = (info.methods[save], info.methods[load])
                if all(isinstance(method, ast.FunctionDef) for method in pair):
                    paired[save] = pair
            elif save in info.methods or load in info.methods:
                present, missing = (save, load) if save in info.methods else (load, save)
                yield self.finding(
                    module,
                    info.methods[present],
                    f"{info.name} defines {present}() without {missing}(): "
                    "the checkpoint protocol requires the pair",
                    detail=info.name,
                )
        if info.components_node is not None:
            yield from self._check_component_list(module, info, info.components_node)
        elif "snapshot" in paired:
            yield from self._check_snapshot_pair(module, info, *paired["snapshot"])
        if "__getstate__" in paired:
            yield from self._check_pickle_pair(module, info, *paired["__getstate__"])

    def _check_component_list(
        self, module: "ParsedModule", info: ClassInfo, literal: ast.stmt
    ) -> Iterable[Finding]:
        components = set(info.components)
        excluded = set(info.not_checkpointed)
        for field in sorted(info.init_fields):
            if field in components and field in excluded:
                problem = "is in both _STATEFUL_COMPONENTS and _NOT_CHECKPOINTED"
            elif field not in components and field not in excluded:
                problem = (
                    "is in neither _STATEFUL_COMPONENTS nor (with a reason) "
                    "_NOT_CHECKPOINTED; a checkpoint would silently drop it"
                )
            else:
                continue
            yield self.finding(
                module,
                literal,
                f"{info.name} field {field!r} {problem}",
                detail=field,
            )

    def _check_snapshot_pair(
        self,
        module: "ParsedModule",
        info: ClassInfo,
        snapshot: ast.FunctionDef,
        restore: ast.FunctionDef,
    ) -> Iterable[Finding]:
        covered_snapshot = referenced_self_attrs(snapshot)
        covered_restore = referenced_self_attrs(restore)
        for field in sorted(info.stateful_fields):
            if field not in covered_snapshot:
                yield self.finding(
                    module,
                    snapshot,
                    f"{info.name}.snapshot() never references mutable field "
                    f"{field!r}; a checkpoint would silently drop it",
                    detail=field,
                )
            if field not in covered_restore:
                yield self.finding(
                    module,
                    restore,
                    f"{info.name}.restore() never references mutable field "
                    f"{field!r}; resume would keep stale in-memory state",
                    detail=field,
                )

    def _check_pickle_pair(
        self,
        module: "ParsedModule",
        info: ClassInfo,
        getstate: ast.FunctionDef,
        setstate: ast.FunctionDef,
    ) -> Iterable[Finding]:
        covered = referenced_self_attrs(getstate)
        if _calls_init(setstate):
            covered |= set(info.init_fields)
        else:
            covered |= mutated_self_attrs(setstate)
        for field in sorted(info.stateful_fields - covered):
            yield self.finding(
                module,
                setstate,
                f"{info.name} mutable field {field!r} is neither pickled by "
                "__getstate__() nor re-established by __setstate__(); "
                "unpickling would lose it",
                detail=field,
            )
