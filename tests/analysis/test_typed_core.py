"""The typed-core perimeter holds without mypy installed.

CI runs mypy (``disallow_untyped_defs`` / ``disallow_incomplete_defs``)
over the ``[tool.mypy] files`` list in pyproject.toml; this test
approximates those two flags with an AST pass so the container test run
catches an unannotated def landing inside the perimeter before CI does.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def _typed_core_paths() -> list[Path]:
    text = (REPO / "pyproject.toml").read_text()
    block = re.search(r"\[tool\.mypy\].*?files = \[(.*?)\]", text, re.DOTALL)
    assert block, "pyproject.toml lost its [tool.mypy] files list"
    entries = re.findall(r'"([^"]+)"', block.group(1))
    paths = [REPO / entry for entry in entries]
    for path in paths:
        assert path.exists(), f"typed-core entry {path} does not exist"
    return paths


def _untyped_def_exemptions() -> set[str]:
    """Modules whose mypy override relaxes ``disallow_untyped_defs``."""
    text = (REPO / "pyproject.toml").read_text()
    exempt: set[str] = set()
    for block in text.split("[[tool.mypy.overrides]]")[1:]:
        if "disallow_untyped_defs = false" not in block:
            continue
        match = re.search(r'module = "?\[?"?([^"\]]+)"?\]?', block)
        if match:
            exempt.add("src/" + match.group(1).replace(".", "/") + ".py")
    return exempt


def _iter_files(paths: list[Path]):
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def test_typed_core_covers_the_digest_feeders():
    entries = {str(p.relative_to(REPO)) for p in _typed_core_paths()}
    assert {
        "src/repro/forecasting",
        "src/repro/linkage",
        "src/repro/sources",
        "src/repro/store",
        "src/repro/query",
        "src/repro/core",
        "src/repro/cep",
        "src/repro/insitu",
        "src/repro/model",
    } <= entries


def test_every_typed_core_def_is_fully_annotated():
    offenders = []
    exempt = _untyped_def_exemptions()
    for path in _iter_files(_typed_core_paths()):
        if str(path.relative_to(REPO)) in exempt:
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            missing = []
            if node.returns is None and node.name != "__init__":
                missing.append("return")
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                if arg.arg in ("self", "cls"):
                    continue
                if arg.annotation is None:
                    missing.append(arg.arg)
            for star in (args.vararg, args.kwarg):
                if star is not None and star.annotation is None:
                    missing.append(f"*{star.arg}")
            if missing:
                rel = path.relative_to(REPO)
                offenders.append(f"{rel}:{node.lineno} {node.name} ({', '.join(missing)})")
    assert offenders == [], "unannotated defs inside the mypy perimeter:\n" + "\n".join(
        offenders
    )
