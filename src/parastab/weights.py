"""Carleman weight construction and the derived constants.

The spatial weight psi is an explicit affine function: positive, with
nonvanishing slope, and with nonpositive outward slope at any unobserved
endpoint. The weights live on one frame only: the translated measurement
frame (0, 2 delta1), where the audited field lives. There the time factor
l1(t) = delta1^2 - (t - delta1)^2 vanishes at both ends, so
rho1 = e^{lam psi}/l1 and theta1 = (e^{lam psi} - e^{2 lam sup psi})/l1 are
unbounded there: endpoint columns are stored as NaN, so a quadrature that
strays onto them reads NaN instead of a silently wrong number.

l1 is computed in that symmetric form, algebraically identical to
t(2 delta1 - t) but exact at the midpoint, which makes the equality cases
theta1 = -M (where psi attains its sup) and theta1 = -c1 (at the midpoint,
where psi attains its min) hold bit for bit, not just to round-off.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import GAMMA_RIGHT, SpatialDomain, TimeWindow, check_integer, \
    check_real

EXP_WEIGHTED = "exp_weighted"
LITERAL_TRUNCATED = "literal_truncated"
BOUNDARY_MODES = (EXP_WEIGHTED, LITERAL_TRUNCATED)

# exponents below this underflow the weight to an exact zero; keeps
# quadrature free of denormal noise near the window endpoints
UNDERFLOW_EXPONENT = -700.0


@dataclass(frozen=True)
class WeightConfig:
    """The audit's sweep settings: the s values, the exponent selector p
    and the boundary mode (the sharpness lam belongs to the weights).

    The one place s, p and the boundary mode are checked. An empty sweep
    means the default octave of default_s_values; a given one must span at
    least a factor 8.
    """

    s_values: tuple = ()
    p: int = 0
    boundary_weighting: str = EXP_WEIGHTED

    def __post_init__(self):
        check_integer("p", self.p)
        if self.p not in (0, 1):
            raise ValueError("p must be 0 or 1")
        if self.boundary_weighting not in BOUNDARY_MODES:
            raise ValueError(f"boundary_weighting must be one of {BOUNDARY_MODES}")
        for s in self.s_values:
            check_real("s value", s)
        sv = tuple(float(s) for s in self.s_values)
        if not all(0.0 < s < math.inf for s in sv):
            raise ValueError("all s values must be positive and finite")
        if any(a >= b for a, b in zip(sv, sv[1:])):
            raise ValueError("s values must be strictly increasing")
        if sv and (len(sv) < 2 or sv[-1] / sv[0] < 8.0 - 1e-12):
            raise ValueError("sweep must span at least a factor 8 in s")
        object.__setattr__(self, "s_values", sv)


def build_psi(domain: SpatialDomain) -> np.ndarray:
    """Affine spatial weight: slope points toward an observed endpoint.

    psi > 0, |psi'| = 1 > 0, and the outward derivative at an endpoint not
    in Gamma is -1 <= 0. With the right endpoint observed (or both),
    psi = x - x_left + 1; with only the left observed, the mirror image.
    """
    x = domain.points
    if GAMMA_RIGHT in domain.gamma:
        return x - domain.x_left + 1.0
    return domain.x_right - x + 1.0


@dataclass(frozen=True)
class CarlemanWeights:
    """Weight fields on the shifted measurement frame (0, 2 delta1).

    rho1/theta1 columns at l1 = 0 hold NaN; only interior columns carry
    values.
    """

    psi: np.ndarray
    psi_sup: float
    l1_shift: np.ndarray
    rho1_shift: np.ndarray
    theta1_shift: np.ndarray
    M: float
    c1: float
    lam: float
    shifted_window: TimeWindow
    domain: SpatialDomain


def eval_weights(lam: float, window: TimeWindow,
                 domain: SpatialDomain) -> CarlemanWeights:
    """The weights of sharpness lam on the shifted frame of window.

    lam must be positive. A lam whose amplitude e^{2 lam sup psi}, or the
    constant M built from it, overflows is refused: every quadrature
    against such weights would read nan.
    """
    check_real("lam", lam)
    if not lam > 0:
        raise ValueError("lam must be positive")
    psi = build_psi(domain)
    if not np.all(psi > 0.0):
        raise ValueError("psi must be positive on the closed domain")
    dpsi = np.diff(psi) / domain.h
    if not np.all(np.abs(dpsi) > 0.0):
        raise ValueError("psi gradient vanishes on the grid")

    shifted = window.shifted()
    d1 = shifted.delta1
    dd = d1 * d1
    i_sup = int(np.argmax(psi))
    psi_sup = float(psi[i_sup])
    with np.errstate(over="ignore"):
        exp_psi = np.exp(lam * psi)
        big = float(np.exp(2.0 * lam * psi)[i_sup])
    e_sup = float(exp_psi[i_sup])
    e_min = float(exp_psi[int(np.argmin(psi))])
    M = (big - e_sup) / dd
    if not (math.isfinite(big) and math.isfinite(M)):
        raise ValueError(f"lambda={lam!r} overflows the weight amplitude "
                         f"(e^(2 lam sup psi) = {big!r}, M = {M!r}); use a "
                         f"smaller lambda")

    # symmetric form: exact at the midpoint, where the extremal cases live
    off = shifted.times - d1
    l1 = dd - off * off
    l1[0] = 0.0
    l1[-1] = 0.0
    # true division, not multiplication by 1/l1: it makes theta1(i_sup, mid)
    # the exact negation of M for any delta1
    pos = l1[None, :] > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        rho1 = np.where(pos, exp_psi[:, None] / l1[None, :], np.nan)
        theta1 = np.where(pos, (exp_psi - big)[:, None] / l1[None, :], np.nan)

    c1 = (big - e_min) / dd
    return CarlemanWeights(psi=psi, psi_sup=psi_sup, l1_shift=l1,
                           rho1_shift=rho1, theta1_shift=theta1, M=M, c1=c1,
                           lam=lam, shifted_window=shifted,
                           domain=domain)


@dataclass(frozen=True)
class WeightBoundsReport:
    """Grid audit of the shifted-weight inequalities."""

    theta_shift_excess: float      # max over interior nodes of theta1 + M
    midline_deficit: float         # max over x of -c1 - theta1(x, delta1)
    dt_theta_ratio_sup: float      # grid sup of |d theta1/dt| / rho1^2
    theta_all_negative: bool
    monotone_in_time: bool         # theta1(x,t) <= theta1(x, delta1) everywhere


def check_weight_bounds(weights: CarlemanWeights) -> WeightBoundsReport:
    """Evaluate the pointwise weight inequalities on the shifted frame.

    The time derivative of theta1 is evaluated in closed form at the grid
    nodes: d/dt [N/l] = -N l'/l^2 with N < 0 the theta numerator, so the
    reported quotient |d theta1/dt| / rho1^2 = |N| |l'| e^{-2 lam psi} stays
    finite up to the excluded endpoints.
    """
    interior = slice(1, weights.shifted_window.nt)
    theta1 = weights.theta1_shift[:, interior]
    excess = float(np.max(theta1 + weights.M))

    mid = weights.shifted_window.snapshot_index
    theta_mid = weights.theta1_shift[:, mid]
    deficit = float(np.max(-weights.c1 - theta_mid))
    monotone = bool(np.all(theta1 <= theta_mid[:, None]))

    lam = weights.lam
    numer = np.exp(lam * weights.psi) - math.exp(2.0 * lam * weights.psi_sup)
    ts = weights.shifted_window.times[interior]
    l_slope = 2.0 * (weights.shifted_window.delta1 - ts)
    ratio = (np.abs(numer)[:, None] * np.abs(l_slope)[None, :]
             * np.exp(-2.0 * lam * weights.psi)[:, None])
    return WeightBoundsReport(
        theta_shift_excess=excess,
        midline_deficit=deficit,
        dt_theta_ratio_sup=float(np.max(ratio)),
        theta_all_negative=bool(np.all(theta1 < 0.0)),
        monotone_in_time=monotone,
    )
