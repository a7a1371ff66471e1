"""Admissibility of data pairs: rate budget for the source, smoothness
surrogate for the initial value.

A source is admissible when its time derivative is dominated by its final
snapshot, |f_t(x,t)| <= C0 |f(x,T)| at every grid point. The smallest such
C0 is a grid supremum and is computed, never assumed. Initial values carry
a discrete C^4-type seminorm (max of divided differences up to order 4)
standing in for the smoothness constant of the continuum theory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import SpaceTimeField
from .norms import l2_space, l2_spacetime
from .solver import time_derivative

# Relative floor below which a final-snapshot value counts as zero.
ZERO_REL_TOL = 1e-12


def check_source_condition(f: SpaceTimeField) -> float:
    """Smallest C0 with |f_t| <= C0 |f(., T)| on the grid, T = f.window.T.

    Returns math.inf when no finite budget works: some x has f(x, T) = 0
    while f_t is not identically zero along that line. Zero is detected
    relative to the overall scale of f, so sampled functions that vanish
    at T up to round-off are treated as vanishing.
    """
    i_T = f.window.snapshot_index
    ft = time_derivative(f).values
    denom = np.abs(f.values[:, i_T])
    ft_sup = np.max(np.abs(ft), axis=1)

    scale = float(np.max(np.abs(f.values)))
    if scale == 0.0:
        # f is identically zero; any budget works.
        return 0.0
    floor = ZERO_REL_TOL * scale
    # the one-sided end stencils leave round-off crumbs on constant lines,
    # so rates below the floor count as zero just like snapshot values do
    ft_sup = np.where(ft_sup > floor, ft_sup, 0.0)
    zero_line = denom <= floor
    if np.any(zero_line & (ft_sup > 0.0)):
        return math.inf
    live = ~zero_line
    if not np.any(live):
        return 0.0
    return float(np.max(ft_sup[live] / denom[live]))


def c4_surrogate(g: np.ndarray, h: float) -> float:
    """Max of |g| and its divided differences up to fourth order."""
    g = np.asarray(g, dtype=float)
    if g.ndim != 1:
        raise ValueError("initial value must be a one-dimensional sample array")
    if g.size < 5:
        raise ValueError("need at least 5 samples for fourth differences")
    worst = 0.0
    for order in range(5):
        d = np.diff(g, n=order) / h ** order
        worst = max(worst, float(np.max(np.abs(d))))
    return worst


@dataclass(frozen=True, eq=False)
class AdmissiblePair:
    """A data pair (f, g) admitted by the gate, with the norms it measured;
    an absent part is the zero part and reads 0.0."""
    f: SpaceTimeField | None
    g: np.ndarray | None
    f_norm: float          # ||f||_{L2(Q)}
    g_norm: float          # ||g||_{L2(Omega)}
    c4_surrogate: float


def make_admissible_pair(ctx, f: SpaceTimeField | None = None,
                         g: np.ndarray | None = None) -> AdmissiblePair:
    """Admit (f, g) under the context budget ctx.C0, or refuse it.

    This is the one place the rate budget is decided. The inequality
    |f_t| <= C0 |f(., T)| is checked on the grid; a source whose measured
    minimal budget exceeds C0 is rejected, and so is data too large for
    floating point (a non-finite L2 norm of f or g, or C^4 surrogate of g),
    before any of it overflows downstream; a g that is not finite is
    refused as such, at its first such grid point.
    """
    f_norm = g_norm = seminorm = 0.0
    if f is not None:
        with np.errstate(all="ignore"):
            f_norm = l2_spacetime(f.values, f.domain, f.window)
        if not math.isfinite(f_norm):
            raise ValueError(f"source overflows: its L2(Q) norm is {f_norm!r}")
        need = check_source_condition(f)
        if not need <= ctx.C0 * (1.0 + 1e-12):
            raise ValueError(
                f"source violates the rate budget: needs C0 >= {need!r}, got {ctx.C0!r}")
    if g is not None:
        g = np.asarray(g, dtype=float)
        if g.shape != (ctx.domain.nx + 1,):
            raise ValueError("initial value shape does not match the spatial grid")
        bad = np.flatnonzero(~np.isfinite(g))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"initial value is not finite at "
                             f"x={float(ctx.domain.points[i])!r}: "
                             f"g={float(g[i])!r}")
        with np.errstate(all="ignore"):
            g_norm = l2_space(g, ctx.domain)
            seminorm = c4_surrogate(g, ctx.domain.h)
        if not (math.isfinite(g_norm) and math.isfinite(seminorm)):
            raise ValueError(f"initial value overflows: its L2 norm is "
                             f"{g_norm!r} and its C^4 surrogate {seminorm!r}")
    return AdmissiblePair(f, g, f_norm, g_norm, seminorm)
