"""Numerical audit of the weighted energy inequality.

Both sides are quadratures over the interior time nodes of whichever frame
the solution lives on (the weights are unbounded at the frame endpoints;
their integrand extends by zero there, since the exponential factor beats
every power of 1/l). The left side and the interior source term always carry
e^{2 s theta}. The printed boundary term does not; integrated literally it
diverges under mesh refinement, so it is offered in two modes:

  exp_weighted      boundary integrand multiplied by e^{2 s theta} (finite,
                    strictly smaller, hence auditing a stronger inequality)
  literal_truncated the printed integrand, restricted to nodes with
                    l(t) >= 4 k t_end

The per-s quotient lhs/rhs is the empirical stand-in for the estimate's
constant; a bounded quotient across an s sweep is the desk-scale proxy for
s-independence.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .mesh import SpaceTimeField
from .operator import DiscreteOperator
from .solver import RESIDUAL_WARN_TOL, equation_residual
from .stencils import fd_first, fd_second
from .weights import (BOUNDARY_MODES, EXP_WEIGHTED, LITERAL_TRUNCATED,
                      UNDERFLOW_EXPONENT, CarlemanWeights, WeightConfig)

FLAG_OK = ""
FLAG_DEGENERATE = "degenerate"
FLAG_VIOLATION = "violation"


@dataclass(frozen=True)
class SweepRow:
    s: float
    p: int
    lhs: float
    rhs: float
    ratio: float
    boundary_mode: str
    lam: float
    delta1: float
    flag: str = FLAG_OK


DEFAULT_S0_SCALE = 32.0


def default_s_values(weights: CarlemanWeights, s0: float | None = None) -> tuple:
    """The sweep {s0, 2 s0, 4 s0, 8 s0}.

    Default s0 = 32/M. Below roughly 24/M the audit quotient still decays
    fast with s (max/median over the octave sweep exceeds 2); at 32/M the
    sweep sits at the bottom of a shallow flat basin, mesh-stable across a
    refinement, while the strongest exponent 2 s theta <= -64 on the shifted
    frame stays far from both round-off and the underflow clamp.
    """
    if s0 is None:
        if not weights.M > 0.0:
            raise ValueError(f"weight amplitude M is {weights.M!r}, so there "
                             f"is no default s sweep; pass s values")
        s0 = DEFAULT_S0_SCALE / weights.M
    return (s0, 2.0 * s0, 4.0 * s0, 8.0 * s0)


def _frame_fields(u: SpaceTimeField, weights: CarlemanWeights):
    """Pick the weight fields living on the same frame as u."""
    win = u.window
    if win.nt == weights.window.nt and win.t_end == weights.window.t_end:
        return weights.l, weights.rho, weights.theta, weights.window
    sw = weights.shifted_window
    if win.nt == sw.nt and win.t_end == sw.t_end:
        return weights.l1_shift, weights.rho1_shift, weights.theta1_shift, sw
    raise ValueError("solution frame matches neither the solve window nor "
                     "the shifted measurement window of these weights")


def _exp_factor(theta_int: np.ndarray, s: float) -> np.ndarray:
    """e^{2 s theta} on interior nodes, underflowed to an exact zero."""
    expo = 2.0 * s * theta_int
    out = np.zeros_like(expo)
    alive = expo >= UNDERFLOW_EXPONENT
    out[alive] = np.exp(expo[alive])
    return out


def carleman_sides(u: SpaceTimeField, f: SpaceTimeField | None,
                   weights: CarlemanWeights, s: float, p: int,
                   boundary_weighting: str = EXP_WEIGHTED,
                   dop: DiscreteOperator | None = None) -> tuple[float, float]:
    """Quadrature of the two sides of the weighted inequality at one s.

    u must solve the evolution equation with source f on its frame (checked
    and warned about when dop is passed). Returns (lhs, rhs).
    """
    if s <= 0:
        raise ValueError("s must be positive")
    if p not in (0, 1):
        raise ValueError("p must be 0 or 1")
    if boundary_weighting not in BOUNDARY_MODES:
        raise ValueError(f"unknown boundary weighting {boundary_weighting!r}")
    l, rho, theta, window = _frame_fields(u, weights)
    if f is not None and f.values.shape != u.values.shape:
        raise ValueError("source grid does not match the solution grid")
    if dop is not None:
        rel = equation_residual(u, f, dop)
        if rel > RESIDUAL_WARN_TOL:
            warnings.warn(f"field does not satisfy the evolution equation on "
                          f"its frame (relative residual {rel:.2e}); the audit "
                          f"quotient is not meaningful for non-solutions",
                          stacklevel=2)

    domain = weights.domain
    h, k = domain.h, window.k
    interior = slice(1, window.nt)
    wx = domain.quad_weights
    wt = window.quad_weights[interior]

    sr = s * rho[:, interior]
    ef = _exp_factor(theta[:, interior], s)

    uv = u.values
    ut = fd_first(uv, k, axis=1)[:, interior]
    ux = fd_first(uv, h, axis=0)[:, interior]
    uxx = fd_second(uv, h, axis=0)[:, interior]
    uu = uv[:, interior]

    dens = (sr ** (p - 1) * (ut * ut + uxx * uxx)
            + sr ** (p + 1) * (ux * ux)
            + sr ** (p + 3) * (uu * uu))
    lhs = float(np.sum(wx[:, None] * wt[None, :] * dens * ef))

    if f is None:
        rhs = 0.0
    else:
        fv = f.values[:, interior]
        rhs = float(np.sum(wx[:, None] * wt[None, :] * sr ** p * (fv * fv) * ef))

    # boundary term over Gamma x (frame interior)
    if boundary_weighting == LITERAL_TRUNCATED:
        keep = l[interior] >= 4.0 * k * window.t_end
        bw = np.where(keep, wt, 0.0)
        bf = np.ones_like(ef)
    else:
        bw = wt
        bf = ef
    for gi in domain.gamma_indices:
        dens_g = (sr[gi] ** p * (ut[gi] ** 2)
                  + sr[gi] ** (p + 1) * (ux[gi] ** 2)
                  + sr[gi] ** (p + 3) * (uu[gi] ** 2))
        rhs += float(np.sum(bw * dens_g * bf[gi]))
    return lhs, rhs


def constant_sweep(u: SpaceTimeField, f: SpaceTimeField | None,
                   weights: CarlemanWeights, config: WeightConfig,
                   dop: DiscreteOperator | None = None) -> list[SweepRow]:
    """One SweepRow per s; the flag column records degenerate/violating rows."""
    s_values = config.s_values or default_s_values(weights)
    if len(s_values) < 2 or s_values[-1] / s_values[0] < 8.0 - 1e-12:
        raise ValueError("sweep must span at least a factor 8 in s")
    rows = []
    for i, s in enumerate(s_values):
        lhs, rhs = carleman_sides(u, f, weights, s, config.p,
                                  config.boundary_weighting,
                                  dop=dop if i == 0 else None)
        if rhs == 0.0:
            flag = FLAG_DEGENERATE if lhs == 0.0 else FLAG_VIOLATION
            ratio = float("nan") if lhs == 0.0 else float("inf")
        else:
            flag = FLAG_OK
            ratio = lhs / rhs
        rows.append(SweepRow(s=float(s), p=config.p, lhs=lhs, rhs=rhs,
                             ratio=ratio, boundary_mode=config.boundary_weighting,
                             lam=config.lam, delta1=float(weights.window.delta1),
                             flag=flag))
    return rows


def sweep_statistic(rows: list[SweepRow]) -> float:
    """max/median of the finite ratios: the boundedness proxy for the sweep."""
    ratios = np.array([r.ratio for r in rows if r.flag == FLAG_OK])
    if ratios.size == 0:
        return float("nan")
    med = float(np.median(ratios))
    if med == 0.0:
        return float("nan")
    return float(np.max(ratios)) / med


def empirical_s_threshold(rows: list[SweepRow]) -> float:
    """max(s0, 2 C_emp): the smallest s the sweep certifies as admissible.

    C_emp is the largest clean audited quotient, standing in for the
    inequality's constant; a diagnostic computed from sweep output, never
    stored. nan when no row is clean.
    """
    ratios = [r.ratio for r in rows if r.flag == FLAG_OK]
    if not ratios:
        return float("nan")
    return max(min(r.s for r in rows), 2.0 * max(ratios))
