"""Seeded inputs of the seven workloads.

The program only ever sees what is generated here: a time-sorted report
stream plus the :class:`~repro.core.pipeline.PipelineSpec` (world bounds,
entity registry, zones, domain) to build pipelines for it. The same seed
gives the same stream; :attr:`Stream.digest` is how callers check that.

Sizes are set by the benchmark contract's time cap, not by taste: the
driver makes 158 runs in 3420 s, each run sets up three times, and the
generators produce about 30 k records/s, so one set-up may generate
about 45 k records. ``dt_s=20`` (the ground-truth integration step —
reports still arrive every 10 s maritime / 4 s aviation) is what keeps
generation that fast.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core.pipeline import PipelineSpec
from repro.model.entities import EntityRegistry
from repro.model.points import Domain
from repro.model.reports import PositionReport
from repro.sources.generators import (
    AviationTrafficGenerator,
    MaritimeTrafficGenerator,
)
from repro.sources.world import AviationWorld, MaritimeWorld

@dataclass(frozen=True)
class Size:
    """How one workload's fleet is put together (see :func:`generate`)."""

    domain: Domain
    entities: int
    max_duration_s: float | None
    spacing_s: float
    dt_s: float
    max_records: int | None = None


def _sparse(entities: int, max_records: int | None = None) -> Size:
    # A 4 h voyage leaving every 2 h keeps two vessels at sea.
    return Size(Domain.MARITIME, entities, 4 * 3600.0, 7200.0, 20.0, max_records)


#: Entity counts are multiples of the worlds' 12 routes, so every seed
#: sails every route equally often (see :func:`generate`).
SIZES: dict[str, Size] = {
    "ingest_sparse": _sparse(36),
    "ingest_dense": Size(Domain.MARITIME, 60, 3600.0, 15.0, 20.0),
    "ingest_aviation": Size(Domain.AVIATION, 24, None, 75.0, 10.0),
    "ingest_record": _sparse(12, 16_000),
    "ingest_sharded": _sparse(12, 16_000),
    "serve_hot": Size(Domain.MARITIME, 24, 3600.0, 75.0, 20.0),
    "serve_churn": Size(Domain.MARITIME, 24, 4 * 3600.0, 75.0, 20.0),
}

#: ``--tiny``: the self-test size (well under 2 k records per workload).
TINY_SIZES: dict[str, Size] = {
    "ingest_sparse": Size(Domain.MARITIME, 3, 1800.0, 900.0, 20.0),
    "ingest_dense": Size(Domain.MARITIME, 8, 900.0, 15.0, 20.0),
    "ingest_aviation": Size(Domain.AVIATION, 2, None, 75.0, 10.0, 1_000),
    "ingest_record": Size(Domain.MARITIME, 3, 1800.0, 900.0, 20.0),
    "ingest_sharded": Size(Domain.MARITIME, 3, 1800.0, 900.0, 20.0),
    "serve_hot": Size(Domain.MARITIME, 4, 1200.0, 75.0, 20.0),
    "serve_churn": Size(Domain.MARITIME, 4, 3600.0, 75.0, 20.0),
}


@dataclass(frozen=True)
class Stream:
    """One workload's generated input."""

    reports: list[PositionReport]
    spec: PipelineSpec
    digest: str
    generate_s: float

    @property
    def entity_ids(self) -> list[str]:
        return sorted({r.entity_id for r in self.reports})


def _digest(reports: list[PositionReport]) -> str:
    columns = np.array([(r.t, r.lon, r.lat) for r in reports], dtype=np.float64)
    sha = hashlib.sha256(columns.tobytes())
    sha.update("\n".join(r.entity_id for r in reports).encode("utf-8"))
    return sha.hexdigest()


def generate(workload: str, seed: int, tiny: bool = False) -> Stream:
    """The workload's stream for ``seed`` (deterministic).

    The fleet is put together one entity at a time: entity ``k`` sails
    route ``k mod 12`` of the default world, leaving ``k × spacing_s``
    (plus a seeded jitter of up to one spacing) after the first. The
    program's generators do the sailing and the sensing; what is taken
    out of the seed's hands is how many entities share a route and how
    close together they leave — left to chance, one seed in three puts
    two vessels on one lane minutes apart, and that pair alone halves
    ``ingest_sparse`` throughput.
    """
    size = (TINY_SIZES if tiny else SIZES)[workload]
    started = perf_counter()
    aviation = size.domain is Domain.AVIATION
    world = AviationWorld.core_europe() if aviation else MaritimeWorld.aegean()
    generators = [
        (AviationTrafficGenerator if aviation else MaritimeTrafficGenerator)(
            world=dataclasses.replace(world, routes=[route]), seed=(seed, index)
        )
        for index, route in enumerate(world.routes)
    ]
    registry = EntityRegistry()
    reports: list[PositionReport] = []
    for k in range(size.entities):
        options = {
            "start_time": k * size.spacing_s,
            "dt_s": size.dt_s,
            "departure_spread_s": size.spacing_s,
        }
        if aviation:
            sample = generators[k % len(generators)].generate(n_flights=1, **options)
        else:
            sample = generators[k % len(generators)].generate(
                n_vessels=1, max_duration_s=size.max_duration_s, **options
            )
        # Every one-entity sample calls its entity "0000"; number them.
        (entity,) = sample.registry
        entity_id = f"{entity.entity_id[0]}{k:04d}"
        registry.add(dataclasses.replace(entity, entity_id=entity_id))
        reports.extend(
            dataclasses.replace(r, entity_id=entity_id) for r in sample.reports
        )
    reports.sort(key=lambda r: r.t)
    generate_s = perf_counter() - started
    if size.max_records is not None:
        reports = reports[: size.max_records]
    spec = PipelineSpec(
        bbox=world.bbox,
        registry=registry,
        zones=tuple(world.sectors if aviation else world.zones),
        domain=size.domain,
        metrics_enabled=False,
    )
    return Stream(reports, spec, _digest(reports), generate_s)
