"""In-situ stream processing: compression "without affecting analytics".

The paper's in-situ components "compress and integrate data at high rates
of data compression without affecting the quality of analytics,
capitalizing on primitive operators that are applied directly on the data
streams". This package implements that layer:

- :mod:`repro.insitu.filters` — primitive cleaning operators (invalid
  positions, physics-violating jumps, duplicates).
- :mod:`repro.insitu.critical` — online critical-point detection (stops,
  turns, speed changes, communication gaps).
- :mod:`repro.insitu.synopses` — the synopses generator: keep a report iff
  it is critical or the dead-reckoning error since the last kept report
  exceeds a threshold.
- :mod:`repro.insitu.douglas_peucker` — the offline batch-compression
  baseline for comparison.
- :mod:`repro.insitu.quality` — compression-quality metrics (reconstruction
  RMSE, speed/heading fidelity) for experiment E1.
"""

from repro.insitu.filters import (
    PlausibilityFilter,
    DeduplicateFilter,
    clean_reports,
)
from repro.insitu.critical import CriticalPointType, CriticalPointDetector, AnnotatedReport
from repro.insitu.synopses import SynopsesConfig, SynopsesGenerator, compress_trajectory
from repro.insitu.douglas_peucker import douglas_peucker
from repro.insitu.quality import (
    reconstruction_errors_m,
    CompressionQuality,
    evaluate_compression,
)
from repro.insitu.adaptive import AdaptiveConfig, AdaptiveSynopsesGenerator
from repro.insitu.fusion import (
    CrossSourceFuser,
    FusionConfig,
    fuse_streams,
    merge_streams,
)

__all__ = [
    "PlausibilityFilter",
    "DeduplicateFilter",
    "clean_reports",
    "CriticalPointType",
    "CriticalPointDetector",
    "AnnotatedReport",
    "SynopsesConfig",
    "SynopsesGenerator",
    "compress_trajectory",
    "douglas_peucker",
    "reconstruction_errors_m",
    "CompressionQuality",
    "evaluate_compression",
    "AdaptiveConfig",
    "AdaptiveSynopsesGenerator",
    "CrossSourceFuser",
    "FusionConfig",
    "fuse_streams",
    "merge_streams",
]
