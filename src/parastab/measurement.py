"""Extracting the observed data from a solution field.

The observation is the final-time snapshot u(., T) together with the
boundary trace on the observed endpoints over the window
(T - delta1, T + delta1). Its size is measured by the combined norm
sqrt(h2_space(snapshot)^2 + h2_trace(trace)^2); measurement_data attaches
these norms to any snapshot/trace pair, clean or noisy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import SpaceTimeField, SpatialDomain, TimeWindow
from .norms import h2_space, h2_trace


@dataclass(frozen=True, eq=False)
class MeasurementData:
    final_snapshot: np.ndarray
    lateral_trace: np.ndarray
    h2_space_norm: float
    h2_trace_norm: float
    combined_norm: float


def measurement_data(snapshot: np.ndarray, trace: np.ndarray,
                     domain: SpatialDomain, window: TimeWindow) -> MeasurementData:
    """Bundle a snapshot and a lateral trace with their H2 norms."""
    h2s = h2_space(snapshot, domain)
    h2t = h2_trace(trace, window)
    return MeasurementData(snapshot, trace, h2s, h2t, math.hypot(h2s, h2t))


def measure(u: SpaceTimeField, domain: SpatialDomain, window: TimeWindow) -> MeasurementData:
    """Snapshot, trace, and their norms for a solution on (domain, window)."""
    if u.values.shape != (domain.nx + 1, window.nt + 1):
        raise ValueError("field shape does not match the measurement grids")
    snapshot = u.values[:, window.snapshot_index].copy()
    trace = u.values[np.array(domain.gamma_indices), window.window_slice].copy()
    return measurement_data(snapshot, trace, domain, window)
