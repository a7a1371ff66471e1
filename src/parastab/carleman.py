"""Numerical audit of the weighted energy inequality.

Both sides are quadratures over the interior time nodes of the shifted
measurement frame (0, 2 delta1), the one frame the weights live on and the
audited field u_t is translated to (the weights are unbounded at the frame
endpoints; their integrand extends by zero there, since the exponential
factor beats every power of 1/l1). The left side and the interior source
term always carry e^{2 s theta}. The printed boundary term does not;
integrated literally it diverges under mesh refinement, so it is offered in
two modes:

  exp_weighted      boundary integrand multiplied by e^{2 s theta} (finite,
                    strictly smaller, hence auditing a stronger inequality)
  literal_truncated the printed integrand, restricted to nodes with
                    l1(t) >= 4 k t_end

The per-s quotient lhs/rhs is the empirical stand-in for the estimate's
constant; a bounded quotient across an s sweep is the desk-scale proxy for
s-independence.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .mesh import SpaceTimeField
from .operator import DiscreteOperator
from .solver import RESIDUAL_WARN_TOL, equation_residual
from .stencils import fd_first, fd_second
from .weights import (LITERAL_TRUNCATED, UNDERFLOW_EXPONENT, CarlemanWeights,
                      WeightConfig)

FLAG_OK = ""
FLAG_DEGENERATE = "degenerate"
FLAG_VIOLATION = "violation"


def flagged_quotient(num: float, den: float) -> tuple:
    """(flag, num / den); a zero den is degenerate (nan) when num is 0
    too, else a violation (inf)."""
    if den != 0.0:
        return FLAG_OK, num / den
    if num == 0.0:
        return FLAG_DEGENERATE, math.nan
    return FLAG_VIOLATION, math.inf


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


def default_s_values(weights: CarlemanWeights) -> tuple:
    """The sweep {s0, 2 s0, 4 s0, 8 s0} with s0 = 32/M.

    Below roughly 24/M the audit quotient still decays fast with s
    (max/median over the octave sweep exceeds 2); at 32/M the sweep sits at
    the bottom of a shallow flat basin, mesh-stable across a refinement,
    while the strongest exponent 2 s theta <= -64 on the shifted frame
    stays far from both round-off and the underflow clamp.
    """
    if not weights.M > 0.0:
        raise ValueError(f"weight amplitude M is {weights.M!r}, so there "
                         f"is no default s sweep; pass s values")
    s0 = DEFAULT_S0_SCALE / weights.M
    return (s0, 2.0 * s0, 4.0 * s0, 8.0 * s0)


def _exp_factor(theta_int: np.ndarray, s: float, out: np.ndarray,
                scratch: np.ndarray) -> np.ndarray:
    """e^{2 s theta} on interior nodes, underflowed to an exact zero,
    written into out; scratch, shaped like out, is overwritten."""
    expo = np.multiply(2.0 * s, theta_int, out=scratch)
    out.fill(0.0)
    return np.exp(expo, out=out, where=expo >= UNDERFLOW_EXPONENT)


def _power(base: np.ndarray, exponent: int, out: np.ndarray) -> np.ndarray:
    """base ** exponent written into out. The in-place operator dispatches
    as base ** exponent does (numpy computes ** 2 as a square and ** -1 as
    a reciprocal), so out holds the bits of the expression."""
    np.copyto(out, base)
    out **= exponent
    return out


def constant_sweep(u: SpaceTimeField, f: SpaceTimeField | None,
                   weights: CarlemanWeights, config: WeightConfig,
                   dop: DiscreteOperator | None = None) -> list[SweepRow]:
    """One SweepRow per s; the flag column records degenerate/violating rows.

    u must solve the evolution equation with source f (None for none) on
    the shifted frame of the weights (checked and warned about when dop is
    passed). Everything s-independent is computed once; per s only the
    powers of s rho and e^{2 s theta} are. A row with a non-finite side, or
    a clean row with a non-finite quotient, is refused: typically (s rho)^m
    has overflowed where e^{2 s theta} underflows.

    The derivatives of u are dropped once squared, and every s reuses four
    interior-sized buffers, each product formed in the order the written
    quadrature reads, so the rows have the bits of the unbuffered sums.
    """
    s_values = config.s_values or default_s_values(weights)
    window = weights.shifted_window
    if u.window.nt != window.nt or u.window.t_end != window.t_end:
        raise ValueError("solution frame does not match the shifted "
                         "measurement window of these weights")
    if f is not None and f.values.shape != u.values.shape:
        raise ValueError("source grid does not match the solution grid")
    uv = u.values
    ut = fd_first(uv, window.k, axis=1)
    if dop is not None:
        rel = equation_residual(u, ut, f, dop)
        if rel > RESIDUAL_WARN_TOL:
            warnings.warn(f"field does not satisfy the evolution equation on "
                          f"its frame (relative residual {rel:.2e}); the audit "
                          f"quotient is not meaningful for non-solutions",
                          stacklevel=2)

    domain = weights.domain
    h, k = domain.h, window.k
    interior = slice(1, window.nt)
    wt = window.quad_weights[interior]
    wxt = domain.quad_weights[:, None] * wt[None, :]
    rho = weights.rho1_shift[:, interior]
    theta = weights.theta1_shift[:, interior]

    # the squares of the interior values of u_t, u_x and u, with u_t^2 +
    # u_xx^2 in u_t^2's buffer once its boundary rows are kept
    gamma = domain.gamma_indices
    ut = ut[:, interior]
    ut2 = ut * ut
    del ut
    ut2_gamma = ut2[list(gamma)]
    ux = fd_first(uv, h, axis=0)[:, interior]
    ux2 = ux * ux
    del ux
    uxx = fd_second(uv, h, axis=0)[:, interior]
    time_sq = np.add(ut2, uxx * uxx, out=ut2)
    del ut2, uxx
    uu = uv[:, interior]
    uu2 = uu * uu
    src_sq = None if f is None else np.square(f.values[:, interior])
    # the boundary term over Gamma x (frame interior); the literal mode
    # drops e^{2 s theta} and keeps only nodes with l1(t) >= 4 k t_end
    literal = config.boundary_weighting == LITERAL_TRUNCATED
    if literal:
        bw = np.where(weights.l1_shift[interior] >= 4.0 * k * window.t_end,
                      wt, 0.0)
    else:
        bw = wt

    p = config.p
    sr, ef, acc, term = (np.empty_like(wxt) for _ in range(4))
    rows = []
    for s in s_values:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.multiply(s, rho, out=sr)
            _exp_factor(theta, s, ef, acc)
            # dens = sr^(p-1) time_sq + sr^(p+1) ux2 + sr^(p+3) uu2
            dens = _power(sr, p - 1, acc)
            dens *= time_sq
            dens += np.multiply(_power(sr, p + 1, term), ux2, out=term)
            dens += np.multiply(_power(sr, p + 3, term), uu2, out=term)
            # lhs = sum(wxt * dens * ef)
            np.multiply(wxt, dens, out=dens)
            dens *= ef
            lhs = float(np.sum(dens))
            rhs = 0.0
            if f is not None:
                # sum(wxt * sr^p * src_sq * ef)
                prod = np.multiply(wxt, _power(sr, p, acc), out=acc)
                prod *= src_sq
                prod *= ef
                rhs = float(np.sum(prod))
            for j, gi in enumerate(gamma):
                srg = sr[gi]
                dens_g = (srg ** p * ut2_gamma[j] + srg ** (p + 1) * ux2[gi]
                          + srg ** (p + 3) * uu2[gi])
                rhs += float(np.sum(bw * dens_g if literal
                                    else bw * dens_g * ef[gi]))
        flag, ratio = flagged_quotient(lhs, rhs)
        if not (math.isfinite(lhs) and math.isfinite(rhs)
                and (flag != FLAG_OK or math.isfinite(ratio))):
            raise ValueError(f"s={s!r} gives a non-finite row (lhs={lhs!r}, "
                             f"rhs={rhs!r}, ratio={ratio!r}): the weighted "
                             f"quadrature over- or underflows at this s")
        rows.append(SweepRow(s=float(s), p=p, lhs=lhs, rhs=rhs, ratio=ratio,
                             boundary_mode=config.boundary_weighting,
                             lam=weights.lam,
                             delta1=float(window.delta1), flag=flag))
    return rows


def sweep_statistic(rows: list[SweepRow]) -> float | None:
    """max/median of the clean ratios: the boundedness proxy for the sweep;
    None, undefined, when no row is clean or their median is 0."""
    ratios = np.array([r.ratio for r in rows if r.flag == FLAG_OK])
    med = float(np.median(ratios)) if ratios.size else 0.0
    return float(np.max(ratios)) / med if med != 0.0 else None


def empirical_s_threshold(rows: list[SweepRow]) -> float | None:
    """max(s0, 2 C_emp): the smallest s the sweep certifies as admissible.

    C_emp is the largest clean audited quotient, standing in for the
    inequality's constant; a diagnostic computed from sweep output, never
    stored. None, undefined, when no row is clean.
    """
    ratios = [r.ratio for r in rows if r.flag == FLAG_OK]
    if not ratios:
        return None
    return max(min(r.s for r in rows), 2.0 * max(ratios))
