"""Carleman weight construction and the derived constants.

The spatial weight psi is an explicit affine function: positive, with
nonvanishing slope, and with nonpositive outward slope at any unobserved
endpoint. The time factor l(t) = t(t_end - t) vanishes at both ends of the
frame, so rho = e^{lam psi}/l and theta = (e^{lam psi} - e^{2 lam sup psi})/l
are unbounded there: endpoint columns are stored as NaN, so a quadrature
that strays onto them reads NaN instead of a silently wrong number.

Shifted fields live on the translated measurement frame (0, 2 delta1). There
l is computed in the symmetric form delta1^2 - (t - delta1)^2, algebraically
identical to t(2 delta1 - t) but exact at the midpoint, which makes the
equality cases theta = -M (where psi attains its sup) and theta = -c1 (at the
midpoint, where psi attains its min) hold bit for bit, not just to round-off.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import GAMMA_RIGHT, SpatialDomain, TimeWindow

EXP_WEIGHTED = "exp_weighted"
LITERAL_TRUNCATED = "literal_truncated"
BOUNDARY_MODES = (EXP_WEIGHTED, LITERAL_TRUNCATED)

# exponents below this underflow the weight to an exact zero; keeps
# quadrature free of denormal noise near the window endpoints
UNDERFLOW_EXPONENT = -700.0


@dataclass(frozen=True)
class WeightConfig:
    """Sharpness lam, the s sweep, the exponent selector p, boundary mode."""

    lam: float = 1.0
    s_values: tuple = ()
    p: int = 0
    boundary_weighting: str = EXP_WEIGHTED

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        if self.p not in (0, 1):
            raise ValueError("p must be 0 or 1")
        if self.boundary_weighting not in BOUNDARY_MODES:
            raise ValueError(f"boundary_weighting must be one of {BOUNDARY_MODES}")
        sv = tuple(float(s) for s in self.s_values)
        if any(s <= 0 for s in sv):
            raise ValueError("all s values must be positive")
        if any(a >= b for a, b in zip(sv, sv[1:])):
            raise ValueError("s values must be strictly increasing")
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
    """Weight fields on the solve frame and on the shifted measurement frame.

    rho/theta columns at l = 0 hold NaN; only interior columns carry values.
    """

    psi: np.ndarray
    psi_sup: float
    l: np.ndarray
    rho: np.ndarray
    theta: np.ndarray
    l1_shift: np.ndarray
    rho1_shift: np.ndarray
    theta1_shift: np.ndarray
    M: float
    c1: float
    config: WeightConfig
    window: TimeWindow
    shifted_window: TimeWindow
    domain: SpatialDomain


def _singular_fields(exp_psi: np.ndarray, big: float, l: np.ndarray):
    """rho, theta with NaN where l = 0 (the frame's time endpoints).

    True division, not multiplication by 1/l: the division makes
    theta(i_sup, mid) the exact negation of M for any delta1.
    """
    pos = l[None, :] > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(pos, exp_psi[:, None] / l[None, :], np.nan)
        theta = np.where(pos, (exp_psi - big)[:, None] / l[None, :], np.nan)
    return rho, theta


def eval_weights(config: WeightConfig, window: TimeWindow,
                 domain: SpatialDomain) -> CarlemanWeights:
    psi = build_psi(domain)
    if not np.all(psi > 0.0):
        raise ValueError("psi must be positive on the closed domain")
    dpsi = np.diff(psi) / domain.h
    if not np.all(np.abs(dpsi) > 0.0):
        raise ValueError("psi gradient vanishes on the grid")

    lam = config.lam
    exp_psi = np.exp(lam * psi)
    i_sup = int(np.argmax(psi))
    i_min = int(np.argmin(psi))
    psi_sup = float(psi[i_sup])
    big = float(np.exp(2.0 * lam * psi)[i_sup])
    e_sup = float(exp_psi[i_sup])
    e_min = float(exp_psi[i_min])

    t = window.times
    l = t * (window.t_end - t)
    rho, theta = _singular_fields(exp_psi, big, l)

    shifted = window.shifted()
    d1 = window.delta1
    dd = d1 * d1
    ts = shifted.times
    # symmetric form: exact at the midpoint, where the extremal cases live
    off = ts - d1
    l1 = dd - off * off
    l1[0] = 0.0
    l1[-1] = 0.0
    rho1, theta1 = _singular_fields(exp_psi, big, l1)

    M = (big - e_sup) / dd
    c1 = (big - e_min) / dd
    return CarlemanWeights(psi=psi, psi_sup=psi_sup, l=l, rho=rho, theta=theta,
                           l1_shift=l1, rho1_shift=rho1, theta1_shift=theta1,
                           M=M, c1=c1, config=config, window=window,
                           shifted_window=shifted, domain=domain)


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

    lam = weights.config.lam
    numer = np.exp(lam * weights.psi) - math.exp(2.0 * lam * weights.psi_sup)
    ts = weights.shifted_window.times[interior]
    l_slope = 2.0 * (weights.window.delta1 - ts)
    ratio = (np.abs(numer)[:, None] * np.abs(l_slope)[None, :]
             * np.exp(-2.0 * lam * weights.psi)[:, None])
    return WeightBoundsReport(
        theta_shift_excess=excess,
        midline_deficit=deficit,
        dt_theta_ratio_sup=float(np.max(ratio)),
        theta_all_negative=bool(np.all(theta1 < 0.0)),
        monotone_in_time=monotone,
    )
