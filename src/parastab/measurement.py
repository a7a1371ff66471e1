"""Extracting the observed data from a solution field.

The observation is the final-time snapshot u(., T) together with the
boundary trace on the observed endpoints over the window
(T - delta1, T + delta1). Its size is measured by the combined norm
sqrt(h2_space(snapshot)^2 + h2_trace(trace)^2); measurement_data attaches
these norms to any snapshot/trace pair, clean or noisy, and refuses data
too large for them. observed_march records only the observed levels of a
batched forward march; the solver's level loop guards a march of no
columns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import SpaceTimeField, SpatialDomain, TimeWindow
from .norms import h2_space, h2_trace
from .operator import DiscreteOperator
from .solver import cn_march


@dataclass(frozen=True, eq=False)
class MeasurementData:
    final_snapshot: np.ndarray
    lateral_trace: np.ndarray
    h2_space_norm: float
    h2_trace_norm: float
    combined_norm: float


def measurement_data(snapshot: np.ndarray, trace: np.ndarray,
                     domain: SpatialDomain, window: TimeWindow) -> MeasurementData:
    """Bundle a snapshot and a lateral trace with their H2 norms, refusing
    data whose combined norm is not finite."""
    with np.errstate(all="ignore"):
        h2s = h2_space(snapshot, domain)
        h2t = h2_trace(trace, window)
    combined = math.hypot(h2s, h2t)
    if not math.isfinite(combined):
        raise ValueError(f"measurement overflows: its combined norm is "
                         f"{combined!r}")
    return MeasurementData(snapshot, trace, h2s, h2t, combined)


def measure(u: SpaceTimeField) -> MeasurementData:
    """Snapshot, trace, and their norms for a solution on its own grids."""
    domain, window = u.domain, u.window
    snapshot = u.values[:, window.snapshot_index].copy()
    trace = u.values[np.array(domain.gamma_indices), window.window_slice].copy()
    return measurement_data(snapshot, trace, domain, window)


def observed_march(dop: DiscreteOperator, window: TimeWindow,
                   state: np.ndarray, source=None):
    """Snapshots and lateral traces of the m columns of one forward march.

    state holds u^0 of every column, shape (nx+1, m), and source, as
    cn_march takes it, is a callable whose source(n) returns the samples
    f^n of every column, or one (nx+1, m) array for sources constant in
    time, whose level term is then formed once. The march stops at the
    end of the lateral window, the last level measured. The results are
    indexed by column first: snapshots of shape (m, nx+1) and traces of
    shape (m, observed endpoints, window levels), so each column's pair is
    contiguous like the one measure copies out of a full field. With m = 0
    both are empty.
    """
    domain = dop.domain
    i_T, sl = window.snapshot_index, window.window_slice
    gamma = np.array(domain.gamma_indices)
    m = state.shape[1]
    snapshots = np.empty((m, domain.nx + 1))
    traces = np.empty((m, gamma.size, sl.stop - sl.start))

    def record(n, u):
        if n == i_T:
            snapshots[:] = u.T
        if sl.start <= n < sl.stop:
            traces[:, :, n - sl.start] = u[gamma].T

    record(0, state)
    cn_march(dop, window, state, record, source, _last_level=sl.stop - 1)
    return snapshots, traces
