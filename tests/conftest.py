"""Shared fixtures: small, deterministic traffic samples and worlds."""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.geo.bbox import BBox
from repro.geo.grid import GeoGrid
from repro.model.trajectory import Trajectory
from repro.sources.generators import (
    AviationTrafficGenerator,
    MaritimeTrafficGenerator,
    TrafficSample,
)
from repro.sources.world import MaritimeWorld


@pytest.fixture(scope="session")
def maritime_sample() -> TrafficSample:
    """A small deterministic maritime sample shared across tests."""
    generator = MaritimeTrafficGenerator(seed=42)
    return generator.generate(n_vessels=6, max_duration_s=3600.0)


@pytest.fixture(scope="session")
def dense_maritime_sample() -> TrafficSample:
    """24 vessels leaving within two minutes on four lanes (six to a lane).

    Every vessel is at sea for the whole 15 minutes, so over 99 % of the
    records have another vessel inside the proximity radius: the fleet
    the columnar proximity emission is differentially tested on.
    """
    world = MaritimeWorld.aegean()
    world = dataclasses.replace(world, routes=world.routes[:4])
    return MaritimeTrafficGenerator(world=world, seed=17).generate(
        n_vessels=24, max_duration_s=900.0, departure_spread_s=120.0
    )


@pytest.fixture(scope="session")
def aviation_sample() -> TrafficSample:
    """A small deterministic aviation sample shared across tests."""
    generator = AviationTrafficGenerator(seed=43)
    return generator.generate(n_flights=4)


@pytest.fixture(scope="session")
def aegean_grid(maritime_sample: TrafficSample) -> GeoGrid:
    """A 16x16 grid over the maritime world."""
    return GeoGrid(bbox=maritime_sample.world.bbox, nx=16, ny=16)


@pytest.fixture()
def straight_track() -> Trajectory:
    """A simple eastbound 2D track: 10 samples, 60 s apart, ~0.01° steps."""
    n = 10
    return Trajectory(
        "T1",
        [60.0 * i for i in range(n)],
        [24.0 + 0.01 * i for i in range(n)],
        [37.0] * n,
    )


@pytest.fixture()
def climb_track() -> Trajectory:
    """A 3D track climbing 100 m per sample."""
    n = 8
    return Trajectory(
        "F1",
        [30.0 * i for i in range(n)],
        [10.0 + 0.02 * i for i in range(n)],
        [45.0 + 0.01 * i for i in range(n)],
        [1000.0 + 100.0 * i for i in range(n)],
    )


@pytest.fixture()
def unit_bbox() -> BBox:
    """A 1°x1° box used by geometry tests."""
    return BBox(24.0, 37.0, 25.0, 38.0)


def _truncate(path: str) -> None:
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) // 2)


def _bit_flip(path: str) -> None:
    with open(path, "r+b") as fh:
        fh.seek(os.path.getsize(path) // 2)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 0x10]))


def _empty(path: str) -> None:
    open(path, "wb").close()


@pytest.fixture(params=[_truncate, _bit_flip, _empty])
def damage_file(request):
    """One way a stored checkpoint file goes bad; call it with the path."""
    return request.param
