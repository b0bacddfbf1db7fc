"""Project-wide class index shared by the analysis rules.

The engine parses every file first, builds this index, and hands it to
the rules. Rule C1 reads each class's own fields, methods and checkpoint
literals from it; the call graph resolves inherited methods through
:meth:`ClassIndex.ancestors`, information no single module's AST
contains.

Resolution is by simple class name (the identifier a base is written
as), which is exact for this codebase and the right trade-off for a
stdlib-only linter: a wrong-module name collision merely leaves a call
unresolved.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

#: Method names on ``self.<field>`` that mutate the field's value.
MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "restore",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

#: Methods excluded when deciding whether a field is mutable state:
#: ``__init__`` establishes the field; the checkpoint methods rightfully
#: touch everything (``TermDictionary.__getstate__`` seals its chunks).
_NON_MUTATING_CONTEXTS = frozenset(
    {"__init__", "snapshot", "restore", "__getstate__", "__setstate__"}
)


def _self_attr_root(node: ast.expr) -> str | None:
    """Name of the ``self`` attribute an access chain is rooted at."""
    while True:
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return node.attr
            node = node.value
        elif isinstance(node, (ast.Subscript, ast.Starred)):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        else:
            return None


def referenced_self_attrs(func: ast.FunctionDef) -> set[str]:
    """Every ``self.<attr>`` mentioned anywhere in a method body."""
    out: set[str] = set()
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            out.add(node.attr)
    return out


def _mutation_targets(stmt: ast.AST) -> set[str]:
    """Fields a single statement mutates (assignment, del, mutator call)."""
    out: set[str] = set()
    if isinstance(stmt, ast.Assign):
        targets: list[ast.expr] = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Delete):
        targets = list(stmt.targets)
    elif isinstance(stmt, ast.Call):
        func = stmt.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
            root = _self_attr_root(func.value)
            if root is not None:
                out.add(root)
        return out
    else:
        return out
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            elements = list(target.elts)
        else:
            elements = [target]
        for element in elements:
            root = _self_attr_root(element)
            if root is not None:
                out.add(root)
    return out


def mutated_self_attrs(func: ast.FunctionDef) -> set[str]:
    """Every ``self.<attr>`` a method body mutates."""
    out: set[str] = set()
    for stmt in ast.walk(func):
        out |= _mutation_targets(stmt)
    return out


@dataclass
class ClassInfo:
    """Everything C1 needs to know about one class definition."""

    name: str
    module_path: str
    node: ast.ClassDef
    base_names: list[str] = field(default_factory=list)
    methods: dict = field(default_factory=dict)  # name -> ast.FunctionDef
    init_fields: dict = field(default_factory=dict)  # field -> lineno
    mutated_fields: set = field(default_factory=set)
    #: Entries of a literal ``_STATEFUL_COMPONENTS`` tuple (the fields a
    #: pickled ``snapshot()`` carries) and the assignment holding it.
    components: tuple = ()
    components_node: "ast.stmt | None" = None
    #: A literal ``_NOT_CHECKPOINTED`` dict: field -> why it is left out.
    not_checkpointed: dict = field(default_factory=dict)

    @property
    def stateful_fields(self) -> set:
        """Fields assigned in ``__init__`` and mutated after it."""
        return set(self.init_fields) & self.mutated_fields


def _extract_class(node: ast.ClassDef, module_path: str) -> ClassInfo:
    info = ClassInfo(name=node.name, module_path=module_path, node=node)
    for base in node.bases:
        if isinstance(base, ast.Name):
            info.base_names.append(base.id)
        elif isinstance(base, ast.Attribute):
            info.base_names.append(base.attr)
        elif isinstance(base, ast.Subscript):  # Generic[T] and friends
            value = base.value
            if isinstance(value, ast.Name):
                info.base_names.append(value.id)
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            value = stmt.value
            if "_STATEFUL_COMPONENTS" in names and isinstance(value, (ast.Tuple, ast.List)):
                info.components = tuple(
                    element.value
                    for element in value.elts
                    if isinstance(element, ast.Constant) and isinstance(element.value, str)
                )
                info.components_node = stmt
            elif "_NOT_CHECKPOINTED" in names and isinstance(value, ast.Dict):
                info.not_checkpointed = {
                    key.value: reason.value
                    for key, reason in zip(value.keys, value.values)
                    if isinstance(key, ast.Constant)
                    and isinstance(reason, ast.Constant)
                    and isinstance(reason.value, str)
                    and reason.value.strip()
                }
    init = info.methods.get("__init__")
    if isinstance(init, ast.FunctionDef):
        for stmt in ast.walk(init):
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        info.init_fields.setdefault(target.attr, stmt.lineno)
    for name, method in info.methods.items():
        if name in _NON_MUTATING_CONTEXTS or not isinstance(method, ast.FunctionDef):
            continue
        info.mutated_fields |= mutated_self_attrs(method)
    return info


class ClassIndex:
    """All class definitions across the scanned files, by simple name."""

    def __init__(self) -> None:
        self._by_name: dict[str, list[ClassInfo]] = {}
        self.by_module: dict[str, list[ClassInfo]] = {}

    def add_module(self, module_path: str, tree: ast.Module) -> None:
        classes = [
            _extract_class(node, module_path)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        ]
        self.by_module[module_path] = classes
        for info in classes:
            self._by_name.setdefault(info.name, []).append(info)

    def lookup(self, name: str) -> "ClassInfo | None":
        """The unique class of that simple name, or ``None`` on miss/tie."""
        candidates = self._by_name.get(name, ())
        return candidates[0] if len(candidates) == 1 else None

    def ancestors(self, info: ClassInfo) -> list[ClassInfo]:
        """Transitive in-project ancestors, nearest-first, cycles cut."""
        out: list[ClassInfo] = []
        seen = {info.name}
        frontier = list(info.base_names)
        while frontier:
            base_name = frontier.pop(0)
            if base_name in seen:
                continue
            seen.add(base_name)
            base = self.lookup(base_name)
            if base is None:
                continue
            out.append(base)
            frontier.extend(base.base_names)
        return out
