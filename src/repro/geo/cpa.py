"""Closest point of approach (CPA) between two moving entities.

The collision-risk events the paper calls out ("prediction of potential
collision") are detected by thresholding the CPA distance and the time to
CPA (TCPA) computed from the entities' current kinematic state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geo.geodesy import EARTH_RADIUS_M, enu_offset_m

_DEG2RAD = math.pi / 180.0


@dataclass(frozen=True, slots=True)
class CPAResult:
    """Result of a CPA computation between two entities.

    Attributes:
        tcpa_s: Time (seconds from "now") at which the minimum separation
            occurs; 0 when the entities are already diverging.
        distance_m: Separation at TCPA, in metres (3D when both altitudes
            are known, horizontal otherwise).
        current_distance_m: Separation now, in metres.
        horizontal_m: Horizontal component of the separation at TCPA.
        vertical_m: |altitude difference| at TCPA, or ``None`` when either
            altitude is unknown. ATM separation standards threshold the
            two components independently (e.g. 5 NM / 1000 ft), so the
            collision detector needs them apart.
    """

    tcpa_s: float
    distance_m: float
    current_distance_m: float
    horizontal_m: float = 0.0
    vertical_m: float | None = None


def cpa_tcpa(
    lon1: float,
    lat1: float,
    speed1_mps: float,
    heading1_deg: float,
    lon2: float,
    lat2: float,
    speed2_mps: float,
    heading2_deg: float,
    alt1: float | None = None,
    alt2: float | None = None,
    vrate1_mps: float = 0.0,
    vrate2_mps: float = 0.0,
    horizon_s: float = 3600.0,
) -> CPAResult:
    """CPA/TCPA assuming straight-line constant-velocity motion.

    Positions are projected onto a local tangent plane centred between the
    two entities; for encounter geometry (separations of at most tens of
    kilometres) the projection error is negligible relative to the
    kilometre-scale thresholds used for alerts.

    Args:
        horizon_s: TCPA values beyond the horizon are clamped to it; an
            encounter an hour away is operationally irrelevant.
    """
    ref_lon = (lon1 + lon2) / 2.0
    ref_lat = (lat1 + lat2) / 2.0
    x1, y1 = enu_offset_m(ref_lon, ref_lat, lon1, lat1)
    x2, y2 = enu_offset_m(ref_lon, ref_lat, lon2, lat2)

    th1 = math.radians(heading1_deg)
    th2 = math.radians(heading2_deg)
    vx1, vy1 = speed1_mps * math.sin(th1), speed1_mps * math.cos(th1)
    vx2, vy2 = speed2_mps * math.sin(th2), speed2_mps * math.cos(th2)

    use_3d = alt1 is not None and alt2 is not None
    z1 = alt1 if use_3d else 0.0
    z2 = alt2 if use_3d else 0.0
    vz1 = vrate1_mps if use_3d else 0.0
    vz2 = vrate2_mps if use_3d else 0.0

    dx, dy, dz = x1 - x2, y1 - y2, (z1 or 0.0) - (z2 or 0.0)
    dvx, dvy, dvz = vx1 - vx2, vy1 - vy2, vz1 - vz2

    current = math.sqrt(dx * dx + dy * dy + dz * dz)
    dv2 = dvx * dvx + dvy * dvy + dvz * dvz
    if dv2 < 1e-12:
        # Same velocity vector: separation is constant.
        return CPAResult(
            tcpa_s=0.0,
            distance_m=current,
            current_distance_m=current,
            horizontal_m=math.hypot(dx, dy),
            vertical_m=abs(dz) if use_3d else None,
        )

    tcpa = -(dx * dvx + dy * dvy + dz * dvz) / dv2
    tcpa = min(max(tcpa, 0.0), horizon_s)
    cx = dx + dvx * tcpa
    cy = dy + dvy * tcpa
    cz = dz + dvz * tcpa
    dist = math.sqrt(cx * cx + cy * cy + cz * cz)
    return CPAResult(
        tcpa_s=tcpa,
        distance_m=dist,
        current_distance_m=current,
        horizontal_m=math.hypot(cx, cy),
        vertical_m=abs(cz) if use_3d else None,
    )


def cpa_may_fire(
    lon1: np.ndarray, lat1: np.ndarray, spd1: np.ndarray, hdg1: np.ndarray,
    lon2: np.ndarray | float, lat2: np.ndarray | float,
    spd2: np.ndarray | float, hdg2: np.ndarray | float,
    cpa_threshold_m: float,
    tcpa_threshold_s: float,
) -> np.ndarray:
    """Conservative vectorized pre-check of the 2-D CPA/TCPA thresholds.

    Mirrors :func:`cpa_tcpa` (midpoint tangent plane, same 3600 s horizon
    clamp) with margins that dominate the vector-vs-scalar float spread,
    so ``False`` proves the exact scalar check cannot fire:

    - CPA distance banded by 1 m. The clamped vertex is the constrained
      minimum of the separation parabola, and the vectorized separation
      differs from the scalar one by well under a millimetre at these
      scales, so a scalar CPA under the threshold keeps the vector CPA
      under ``threshold + 1``.
    - TCPA banded by 1 s — valid only while ``dv2`` is not tiny (the
      vertex position is ``ε/dv2``-conditioned), so pairs with relative
      speed under ~3 cm/s skip the TCPA cut entirely: their separation
      barely changes over the horizon and the distance band already
      decides them (this also covers the scalar ``dv2 < 1e-12``
      constant-separation branch, which reports TCPA 0).

    Only valid when every current-record altitude is ``None``: that forces
    the scalar computation 2-D and its fire condition to the maritime
    branch for any other/seed altitude.
    """
    k = _DEG2RAD * EARTH_RADIUS_M
    dx = (lon1 - lon2) * k * np.cos(np.radians((lat1 + lat2) / 2.0))
    dy = (lat1 - lat2) * k
    th1 = np.radians(hdg1)
    th2 = np.radians(hdg2)
    dvx = spd1 * np.sin(th1) - spd2 * np.sin(th2)
    dvy = spd1 * np.cos(th1) - spd2 * np.cos(th2)
    dv2 = dvx * dvx + dvy * dvy
    tcpa = -(dx * dvx + dy * dvy) / np.where(dv2 > 0.0, dv2, 1.0)
    tcpa = np.clip(tcpa, 0.0, 3600.0)
    tcpa = np.where(dv2 < 1e-12, 0.0, tcpa)
    cx = dx + dvx * tcpa
    cy = dy + dvy * tcpa
    lim = cpa_threshold_m + 1.0
    return (cx * cx + cy * cy <= lim * lim) & (
        (tcpa <= tcpa_threshold_s + 1.0) | (dv2 < 1e-3)
    )
