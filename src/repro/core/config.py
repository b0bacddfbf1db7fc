"""Pipeline configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cep.simple import SimpleEventConfig
from repro.insitu.synopses import SynopsesConfig


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the end-to-end pipeline in one place.

    Attributes:
        synopses: In-situ compression configuration.
        simple_events: Simple-event thresholds.
        grid_nx / grid_ny: Spatio-temporal encoding grid resolution.
        time_bucket_s: Temporal bucket of the st-key encoding.
        n_partitions: RDF store partition count.
        partitioner: ``"hash"``, ``"grid"`` or ``"hilbert"``.
        persist_rdf: Whether to transform + store triples at all (off for
            pure-latency measurements of the analytics path).
        persist_raw_reports: Store every cleaned report (not just the
            synopsis) — expensive; default keeps synopses only, which is
            the datAcron design point.
        interlink: Run the integration layer online — kept position nodes
            get ``dac:withinZone`` links to containing zones and (when a
            weather source is attached) ``dac:hasWeatherCondition`` links
            to their weather cell, whose document is stored on first
            reference.
        compiled_rdf_emitter: Use the id-level compiled RDF emitter on
            the columnar path (probe-verified against the transformer at
            build time; falls back to the object path on any mismatch or
            when a weather source is attached). Off forces the object
            path everywhere — the ablation arm for differential tests.
        adaptive_keep_rate: When set (e.g. 0.05), the synopses threshold
            floats to hold this keep-rate target (load shedding) instead
            of staying fixed.
        trace_every_n: Trace every Nth record with a full hierarchical
            span tree (record → stages → per-detector). Sampling keeps
            the flamegraph representative while bounding instrumentation
            overhead; ``0`` disables record-level tracing (stage latency
            histograms are always on when the registry is enabled).
        collision / loitering / rendezvous / capacity thresholds mirror the
        corresponding detector constructor arguments.
    """

    synopses: SynopsesConfig = field(default_factory=SynopsesConfig)
    simple_events: SimpleEventConfig = field(default_factory=SimpleEventConfig)
    grid_nx: int = 32
    grid_ny: int = 32
    time_bucket_s: float = 3600.0
    n_partitions: int = 4
    partitioner: str = "hilbert"
    persist_rdf: bool = True
    persist_raw_reports: bool = False
    interlink: bool = False
    compiled_rdf_emitter: bool = True
    collision_cpa_m: float = 1_000.0
    collision_tcpa_s: float = 1_200.0
    loitering_radius_m: float = 1_000.0
    loitering_duration_s: float = 900.0
    rendezvous_radius_m: float = 500.0
    rendezvous_duration_s: float = 600.0
    capacity_limit: int = 10
    capacity_window_s: float = 600.0
    hotspots: bool = False
    hotspot_window_s: float = 1800.0
    hotspot_z_threshold: float = 2.5
    adaptive_keep_rate: float | None = None
    trace_every_n: int = 100

    def __post_init__(self) -> None:
        if self.grid_nx <= 0 or self.grid_ny <= 0:
            raise ValueError("grid dimensions must be positive")
        if self.n_partitions <= 0:
            raise ValueError("n_partitions must be positive")
        if self.partitioner not in ("hash", "grid", "hilbert"):
            raise ValueError(f"unknown partitioner {self.partitioner!r}")
        if self.capacity_limit < 1:
            raise ValueError("capacity_limit must be >= 1")
        for name in ("capacity_window_s", "hotspot_window_s"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
