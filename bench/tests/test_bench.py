"""Self-test of the benchmark at its ``--tiny`` size.

Not part of the tier-1 suite (``testpaths`` is ``tests/``); run it with
``python -m pytest bench/tests -q``.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "bench", "run.py")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        return json.load(source)


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    """One tiny traced suite run; its span files land in ``bench/out``."""
    out = tmp_path_factory.mktemp("bench") / "result.json"
    subprocess.run(
        [sys.executable, RUN, "--tiny", "--traced", "--out", str(out)],
        cwd=ROOT,
        check=True,
        timeout=300,
    )
    with open(out, encoding="utf-8") as source:
        return json.load(source)


def test_document_names_exactly_the_contract(document, contract):
    assert document["claim"] is None
    assert set(document["workloads"]) == {w["name"] for w in contract["workloads"]}
    for entry in document["workloads"].values():
        assert entry["correct"] and entry["failed_share"] == 0
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in contract[section]}
            measured = entry[section]["metrics"]
            assert set(measured) == set(declared)
            for name, cell in measured.items():
                assert cell["unit"] == declared[name]
                assert isinstance(cell["value"], (int, float))


def test_every_name_is_plain(contract):
    names = [w["name"] for w in contract["workloads"]]
    names += [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


def test_spans_nest_and_self_times_are_non_negative(document):
    for workload in document["workloads"]:
        path = os.path.join(ROOT, "bench", "out", f"trace_{workload}.jsonl")
        with open(path, encoding="utf-8") as source:
            spans = {s["span"]: s for s in map(json.loads, source)}
        assert spans
        covered = dict.fromkeys(spans, 0.0)
        for span in spans.values():
            assert span["end"] >= span["start"]
            if span["parent"] is None:
                continue
            parent = spans[span["parent"]]
            assert parent["trace"] == span["trace"]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            covered[parent["span"]] += span["end"] - span["start"]
        for key, span in spans.items():
            assert span["end"] - span["start"] - covered[key] >= -1e-9


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "bench"),
        tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "serve_hot", "--seconds", "1"],
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
