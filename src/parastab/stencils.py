"""Second-order finite-difference stencils along one axis.

Interior points use centered formulas; the edge points use one-sided
formulas of the same order, so fd_first is exact on quadratics and
fd_second on cubics. All stencils are written as combinations of
pairwise differences, which annihilate constant fields bit-exactly
instead of leaving expansion round-off at the edges.

The interior is computed in the result array itself, one operation at a
time in the order the formula reads, so a stencil allocates nothing the
size of its input beyond the result, and every entry has the bits of the
written expression.
"""
from __future__ import annotations

import numpy as np


def _moveaxis(q: np.ndarray, source: int, destination: int) -> np.ndarray:
    """np.moveaxis(q, source, destination), or q itself when both name the
    last axis and the move would change nothing."""
    last = (-1, q.ndim - 1) if q.ndim else ()
    if source in last and destination in last:
        return q
    return np.moveaxis(q, source, destination)


def fd_first(values: np.ndarray, step: float, axis: int = -1) -> np.ndarray:
    q = _moveaxis(np.asarray(values, dtype=float), axis, -1)
    if q.shape[-1] < 3:
        raise ValueError("fd_first needs at least 3 points along the axis")
    out = np.empty_like(q)
    two_h = 2.0 * step
    # (q[2:] - q[:-2]) / two_h
    inner = out[..., 1:-1]
    np.subtract(q[..., 2:], q[..., :-2], out=inner)
    np.divide(inner, two_h, out=inner)
    out[..., 0] = (4.0 * (q[..., 1] - q[..., 0])
                   - (q[..., 2] - q[..., 0])) / two_h
    out[..., -1] = (4.0 * (q[..., -1] - q[..., -2])
                    - (q[..., -1] - q[..., -3])) / two_h
    return _moveaxis(out, -1, axis)


def fd_second(values: np.ndarray, step: float, axis: int = -1) -> np.ndarray:
    q = _moveaxis(np.asarray(values, dtype=float), axis, -1)
    if q.shape[-1] < 4:
        raise ValueError("fd_second needs at least 4 points along the axis")
    out = np.empty_like(q)
    h2 = step * step
    # (q[2:] - 2.0 * q[1:-1] + q[:-2]) / h2
    inner = out[..., 1:-1]
    np.multiply(2.0, q[..., 1:-1], out=inner)
    np.subtract(q[..., 2:], inner, out=inner)
    np.add(inner, q[..., :-2], out=inner)
    np.divide(inner, h2, out=inner)
    out[..., 0] = (2.0 * (q[..., 0] - q[..., 1])
                   - 3.0 * (q[..., 1] - q[..., 2])
                   + (q[..., 2] - q[..., 3])) / h2
    out[..., -1] = (2.0 * (q[..., -1] - q[..., -2])
                    - 3.0 * (q[..., -2] - q[..., -3])
                    + (q[..., -3] - q[..., -4])) / h2
    return _moveaxis(out, -1, axis)
