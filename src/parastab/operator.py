"""Discrete second-order elliptic operators with no-flux walls.

Aq = (a q')' + b q' + c q is discretized in conservative form with centered
differences on the uniform grid. The conormal (no-flux) condition a q' nu = 0
enters through mirrored ghost values; in flux form this is the half-cell
finite-volume closure at the walls, so constants lie in the kernel when c = 0.

The adjoint bands realize the transpose with respect to the trapezoid inner
product <p, q> = sum_i w_i h p_i q_i, which is what the backward-in-time
multiplier problem needs. With b = 0 the operator is its own adjoint in that
product, band for band.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import SpatialDomain

# a must stay at or above this bound at every grid point
ELLIPTICITY_LOWER_BOUND = 1e-10


def _sample_coefficient(coef, x: np.ndarray) -> np.ndarray:
    if callable(coef):
        vals = np.asarray(coef(x), dtype=float)
    else:
        vals = np.asarray(coef, dtype=float)
    return np.broadcast_to(vals, x.shape).astype(float).copy()


def column_bands(lower, diag, upper, columns: int = 1):
    """Bands in row convention, tiled for band_mv over `columns` columns.

    They follow the flat F-order view of the operand, column after column.
    Where a band would couple the last row of one column to the first row
    of the next it holds 1.0, whose products raise no float fault; band_mv
    discards them. Build the bands once per operand shape.
    """
    sub = np.tile(np.concatenate(([1.0], lower[1:])), columns)[1:]
    sup = np.tile(np.concatenate((upper[:-1], [1.0])), columns)[:-1]
    return sub, np.tile(diag, columns), sup


def band_mv(bands, q: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Tridiagonal product with bands from column_bands, space on axis 0.

    q has shape (n,) or (n, m), and the product makes one pass over the
    flat F-order view of all m columns, with the arithmetic of a product
    per column. Given out and scratch, F-contiguous arrays shaped like q
    and distinct from it, the product is written into out and nothing is
    allocated.
    """
    sub, diag, sup = bands
    if out is None:
        out = np.empty(q.shape, order="F")
        scratch = np.empty(q.shape, order="F")
    rows = q.shape[0]
    # one column has no cross-column entries: the strided slices below
    # select nothing in a flat view of length rows
    qf, of, sf = q.ravel("F"), out.ravel("F"), scratch.ravel("F")
    np.multiply(diag, qf, out=of)
    np.multiply(sub, qf[:-1], out=sf[1:])
    # adding -0.0 leaves every value's bits as they are, so the terms that
    # would cross from one column into the next add nothing
    sf[rows::rows] = -0.0
    of[1:] += sf[1:]
    np.multiply(sup, qf[1:], out=sf[:-1])
    sf[rows - 1:-1:rows] = -0.0
    of[:-1] += sf[:-1]
    return out


@dataclass(frozen=True)
class EllipticOperator:
    """Coefficients of Aq = (a q')' + b q' + c q on the closed interval.

    Each coefficient may be a scalar, a grid array, or a callable of x.
    ELLIPTICITY_LOWER_BOUND is enforced pointwise on a when assembling.
    """

    a: object = 1.0
    b: object = 0.0
    c: object = 0.0


@dataclass(frozen=True)
class DiscreteOperator:
    """Banded realization of an elliptic operator on a SpatialDomain.

    Bands follow the row convention: row i couples to q_{i-1} with lower[i],
    to q_i with diag[i], and to q_{i+1} with upper[i]; lower[0] and upper[nx]
    are zero padding. The adjoint bands are adj_lower, diag and adj_upper:
    the transpose keeps the diagonal.
    """

    domain: SpatialDomain
    c: np.ndarray
    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    adj_lower: np.ndarray
    adj_upper: np.ndarray
    self_adjoint: bool

    def apply(self, q: np.ndarray) -> np.ndarray:
        """Aq for a snapshot (nx+1,) or a field (nx+1, nt+1), space on axis 0.

        Uses the flux-difference form lower*(q_{i-1}-q_i) + upper*(q_{i+1}-q_i)
        + c*q, which annihilates constants exactly when c = 0 instead of
        leaving the cancellation error of the expanded bands.
        """
        q = np.asarray(q, dtype=float)
        shape = (-1,) + (1,) * (q.ndim - 1)
        sub, c, sup = (self.lower[1:].reshape(shape), self.c.reshape(shape),
                       self.upper[:-1].reshape(shape))
        out = c * q
        out[1:] += sub * (q[:-1] - q[1:])
        out[:-1] += sup * (q[1:] - q[:-1])
        return out

    @property
    def reaction_max(self) -> float:
        """max c(x), the growth rate bound of the evolution semigroup."""
        return float(np.max(self.c))


def assemble_operator(domain: SpatialDomain, op: EllipticOperator) -> DiscreteOperator:
    """Sample coefficients and build the banded map with no-flux walls.

    Raises ValueError naming the coefficient and the first grid point where
    a sample is not finite, the first grid point where the ellipticity
    bound fails, or the first row whose bands overflow.
    """
    x = domain.points
    a = _sample_coefficient(op.a, x)
    b = _sample_coefficient(op.b, x)
    c = _sample_coefficient(op.c, x)

    for name, vals in (("a", a), ("b", b), ("c", c)):
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"coefficient {name} is not finite at "
                             f"x={float(x[i])!r}: {name}={float(vals[i])!r}")
    # written so that a nan sample fails it too
    bad = np.flatnonzero(~(a >= ELLIPTICITY_LOWER_BOUND))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"ellipticity violated at x={float(x[i])!r}: a={float(a[i])!r} < "
            f"bound {ELLIPTICITY_LOWER_BOUND!r}")

    with np.errstate(over="ignore", invalid="ignore"):
        bands = _bands(domain, a, b, c)
    bad = np.flatnonzero(~np.all(np.isfinite(bands), axis=0))
    if bad.size:
        raise ValueError(f"operator bands overflow at x={float(x[bad[0]])!r}: "
                         f"the coefficients are too large for the step "
                         f"h={domain.h!r}")
    lower, diag, upper, adj_lower, adj_upper = bands
    self_adjoint = bool(np.all(b == 0.0))
    return DiscreteOperator(domain=domain, c=c,
                            lower=lower, diag=diag, upper=upper,
                            adj_lower=adj_lower, adj_upper=adj_upper,
                            self_adjoint=self_adjoint)


def _bands(domain: SpatialDomain, a, b, c) -> np.ndarray:
    """Rows lower, diag, upper, adj_lower, adj_upper of the operator."""
    h = domain.h
    n = domain.nx
    a_half = 0.5 * (a[:-1] + a[1:])
    inv_h2 = 1.0 / (h * h)
    inv_2h = 0.5 / h

    lower = np.zeros(n + 1)
    upper = np.zeros(n + 1)
    lower[1:-1] = a_half[:-1] * inv_h2 - b[1:-1] * inv_2h
    upper[1:-1] = a_half[1:] * inv_h2 + b[1:-1] * inv_2h
    # Mirrored ghost values: the centered b q' term drops out at the walls
    # and the flux difference collapses to a half cell.
    upper[0] = 2.0 * a_half[0] * inv_h2
    lower[n] = 2.0 * a_half[-1] * inv_h2
    # diag = c - (lower + upper) keeps constants in the kernel to round-off.
    diag = c - (lower + upper)

    # h cancels: the trapezoid weight ratios are exactly 2, 1 and 0.5
    wx = domain.quad_weights
    adj_upper = np.zeros(n + 1)
    adj_lower = np.zeros(n + 1)
    adj_upper[:-1] = lower[1:] * (wx[1:] / wx[:-1])
    adj_lower[1:] = upper[:-1] * (wx[:-1] / wx[1:])
    return np.array([lower, diag, upper, adj_lower, adj_upper])
