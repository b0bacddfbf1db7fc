"""PYTHONHASHSEED independence — the acceptance criterion for routing.

Every place the repo once used the salted builtin ``hash()`` (stream/task
routing, scripted-scenario RNG seeds, SVG trajectory colours) must now
produce identical output in interpreters started with different hash
seeds. Each test runs the same probe in two subprocesses with different
``PYTHONHASHSEED`` values and compares digests.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

ROUTING_PROBE = """
import hashlib, json
from repro.hashing import stable_hash
from repro.model.reports import PositionReport
from repro.runtime.sharding import ShardRouter

keys = [f"V{i:04d}" for i in range(500)] + ["", "HOT", "\\u00e5\\u00e4\\u00f6"]
router = ShardRouter(7)
payload = {
    "hashes": [stable_hash(k) for k in keys],
    "shards": [router.shard_of_key(k) for k in keys],
}
print(hashlib.sha256(json.dumps(payload).encode()).hexdigest())
"""

SCENARIO_PROBE = """
import hashlib
from repro.sources.scenarios import rendezvous_scenario

digest = hashlib.sha256()
scenario = rendezvous_scenario(seed=13)
for r in scenario.reports:
    digest.update(f"{r.entity_id},{r.t:.3f},{r.lon:.9f},{r.lat:.9f};".encode())
print(digest.hexdigest())
"""

SVG_PROBE = """
import hashlib
from repro.geo.bbox import BBox
from repro.sources.scenarios import rendezvous_scenario
from repro.viz.svg import SvgMap

scenario = rendezvous_scenario(seed=13)
points = [
    (lon, lat)
    for t in scenario.truth.values()
    for lon, lat in zip(t.lon, t.lat)
]
svg = SvgMap(BBox.from_points(points), width_px=400)
for trajectory in sorted(scenario.truth.values(), key=lambda t: t.entity_id):
    svg.add_trajectory(trajectory)
print(hashlib.sha256(svg.render().encode()).hexdigest())
"""


def run_probe(probe: str, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip()


def assert_seed_independent(probe: str) -> None:
    digests = {seed: run_probe(probe, seed) for seed in ("0", "1", "4242")}
    assert len(set(digests.values())) == 1, digests


def test_builtin_hash_actually_varies_across_seeds():
    """Sanity check: the salt is real, so passing probes mean something."""
    probe = "print(hash('V001'))"
    assert run_probe(probe, "1") != run_probe(probe, "2")


def test_routing_is_hash_seed_independent():
    assert_seed_independent(ROUTING_PROBE)


def test_scenario_data_is_hash_seed_independent():
    assert_seed_independent(SCENARIO_PROBE)


def test_svg_output_is_hash_seed_independent():
    assert_seed_independent(SVG_PROBE)
