"""Trapezoid-rule norms and inner products on grid data, one function per
norm taking exactly the grids it needs.

H2 norms add the squared first and second difference quotients to the
squared values before the square root; differences are centered in the
interior and one-sided second order at the ends, matching the stencils
module, so the norms are absolutely homogeneous and exact for the constant.
"""
from __future__ import annotations

import numpy as np

from .mesh import (SpatialDomain, TimeWindow, _trapezoid_weights,
                   column_blocks)
from .stencils import fd_first, fd_second

_MIN_H2_POINTS = 5


def l2_space_inner(a: np.ndarray, b: np.ndarray, domain: SpatialDomain) -> float:
    return float(np.sum(domain.quad_weights * np.asarray(a) * np.asarray(b)))


def l2_spacetime_inner(a: np.ndarray, b: np.ndarray, domain: SpatialDomain,
                       window: TimeWindow) -> float:
    wx = domain.quad_weights[:, None]
    wt = window.quad_weights[None, :]
    # ((wx * wt) * a) * b in one product buffer
    prod = wx * wt
    np.multiply(prod, np.asarray(a), out=prod)
    np.multiply(prod, np.asarray(b), out=prod)
    return float(np.sum(prod))


def _h2_line_sq(values: np.ndarray, step: float, weights: np.ndarray) -> float:
    """Squared H2 content of one sampled line (last axis is the line axis)."""
    if values.shape[-1] < _MIN_H2_POINTS:
        raise ValueError(f"H2 norms need at least {_MIN_H2_POINTS} points per "
                         f"line, got {values.shape[-1]}")
    d1 = fd_first(values, step, axis=-1)
    d2 = fd_second(values, step, axis=-1)
    total = values * values + d1 * d1 + d2 * d2
    return float(np.sum(weights * total))


def l2_space(q, domain: SpatialDomain):
    """L2(Omega) norm of a snapshot (nx+1,), or the array of the norms of
    the columns of (nx+1, m); each column is summed as one contiguous line,
    so its norm equals that column's own norm bit for bit. The lines are
    laid out a block of columns at a time."""
    q = np.asarray(q, dtype=float)
    columns = q.reshape(q.shape[0], -1)
    norms = np.empty(columns.shape[1])
    for sl in column_blocks(0, columns.shape[1]):
        lines = np.ascontiguousarray(columns[:, sl].T)
        # (weights * lines) * lines
        sq = domain.quad_weights * lines
        np.multiply(sq, lines, out=sq)
        norms[sl] = np.sqrt(np.sum(sq, axis=-1))
    return float(norms[0]) if q.ndim == 1 else norms


def l2_spacetime(q, domain: SpatialDomain, window: TimeWindow) -> float:
    """L2(Q) norm of space-time values on (domain, window)."""
    q = np.asarray(q, dtype=float)
    return float(np.sqrt(l2_spacetime_inner(q, q, domain, window)))


def h2_space(q, domain: SpatialDomain) -> float:
    """H2(Omega) norm of a spatial snapshot."""
    q = np.asarray(q, dtype=float)
    return float(np.sqrt(_h2_line_sq(q, domain.h, domain.quad_weights)))


def h2_trace(rows, window: TimeWindow) -> float:
    """H2 norm of per-endpoint time rows sampled at the window step.

    Rows are summed before the square root, so a two-point boundary counts
    both.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    weights = _trapezoid_weights(rows.shape[-1], window.k)
    return float(np.sqrt(sum(_h2_line_sq(row, window.k, weights) for row in rows)))
