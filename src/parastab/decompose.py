"""Splitting the time derivative of a solution into sourced and source-free
parts, and the interpolation/growth checks that drive the initial-value
stability mechanism.

For u solving u_t = Au + f, u(.,0) = g, set vartheta = u_t. Then
w solves w_t = Aw + f_t, w(.,0) = 0, and z = vartheta - w solves the
source-free equation z_t = Az with z(.,0) = Ag + f(.,0). The split is
computed forward only; the backward terminal-value problem for z is
ill-posed and is verified here as a residual identity instead. A
Decomposition holds w and z with the residuals of that identity and of
the source-free evolution of z.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .mesh import SpaceTimeField
from .norms import l2_space
from .stencils import fd_first
from .solver import (RESIDUAL_WARN_TOL, equation_residual, forward_solve,
                     time_derivative)


@dataclass(frozen=True, eq=False)
class Decomposition:
    """The split u_t = w + z and the max-norm checks of the two identities
    behind it; the third, vartheta = w + z, holds bit for bit because z is
    defined as vartheta - w.

    residual_evolution: max |z_t - Az| over interior time nodes (z is
    source-free).
    residual_terminal: max |z(.,T) - (Au(.,T) + f(.,T) - w(.,T))|.
    """
    sourced: SpaceTimeField      # w, driven by f_t from rest
    source_free: SpaceTimeField  # z = vartheta - w
    residual_evolution: float
    residual_terminal: float


def decompose_time_derivative(u: SpaceTimeField, f: SpaceTimeField | None,
                              ctx) -> Decomposition:
    """Split u_t = w + z with w sourced by f_t and z source-free.

    Warns when u does not satisfy the evolution equation for f on its
    grid; the two residuals then quantify the mismatch rather than
    certifying the split.
    """
    domain, window, dop = ctx.domain, ctx.window, ctx.dop
    if u.values.shape != (domain.nx + 1, window.nt + 1):
        raise ValueError("solution shape does not match the context grids")
    if f is not None and f.values.shape != u.values.shape:
        raise ValueError("source grid does not match the solution grid")

    vartheta = time_derivative(u).values
    rel = equation_residual(u, vartheta, f, dop)
    if rel > RESIDUAL_WARN_TOL:
        warnings.warn(f"field does not solve the evolution equation "
                      f"(relative residual {rel:.2e}); the split residuals "
                      f"report the mismatch, not a certificate",
                      stacklevel=2)

    ft = None if f is None else time_derivative(f)
    if ft is None or not np.any(ft.values):
        w = SpaceTimeField(np.zeros_like(u.values), domain, window)
    else:
        w = forward_solve(dop, ft, None, window)
    del ft  # freed before z and its stencils, so the peak does not grow
    z = SpaceTimeField(vartheta - w.values, domain, window)

    # columns whose centered stencil touches the frame ends are excluded:
    # the end columns of vartheta are one-sided estimates, and differencing
    # them again is only first-order accurate there
    zt = fd_first(z.values, window.k, axis=1)
    evolution = float(np.max(np.abs((zt - dop.apply(z.values))[:, 2:-2])))

    i_T = window.snapshot_index
    f_T = f.values[:, i_T] if f is not None else 0.0
    terminal_rhs = dop.apply(u.values[:, i_T]) + f_T - w.values[:, i_T]
    terminal = float(np.max(np.abs(z.values[:, i_T] - terminal_rhs)))

    return Decomposition(w, z, evolution, terminal)


@dataclass(frozen=True, eq=False)
class LogConvexityReport:
    """Interpolation bound on the source-free part and growth bound on the
    sourced part, over grid times in [0, T].

    checked is False when the operator has drift (the sharp interpolation
    form needs self-adjointness); notice then says why. degenerate marks
    a vanishing terminal norm with nonvanishing initial norm, where the
    interpolation bound carries no information.
    """
    checked: bool
    notice: str
    degenerate: bool
    times: np.ndarray
    norms: np.ndarray
    chord: np.ndarray
    max_violation: float
    min_log_second_difference: float
    w_ratio_sup: float
    w_bound_ok: bool


def check_log_convexity_and_w_bound(z: SpaceTimeField, w: SpaceTimeField | None,
                                    f: SpaceTimeField | None,
                                    ctx) -> LogConvexityReport:
    """Check ||z(t)|| <= ||z(0)||^(1-t/T) ||z(T)||^(t/T) and the sourced-part
    growth bound ||w(t)|| <= C0 t e^(omega t) ||f(.,T)|| on grid t in [0,T].

    window, C0 and the operator come from ctx, the context that produced
    z and w. The interpolation check uses the sharp self-adjoint form, so
    it is skipped with a notice when the operator has drift. omega is the
    operator's reaction ceiling max c(x).
    """
    window, C0, omega = ctx.window, ctx.C0, ctx.dop.reaction_max
    i_T = window.snapshot_index
    times = window.times[:i_T + 1]
    T = window.T

    empty = np.empty(0)
    if not ctx.dop.self_adjoint:
        return LogConvexityReport(False, "interpolation bound skipped: the sharp "
                                  "form needs a drift-free operator", False,
                                  times, empty, empty, math.nan, math.nan,
                                  *_w_ratio(w, f, window, C0, omega, times))

    norms = l2_space(z.values[:, :i_T + 1], z.domain)
    n0, nT = norms[0], norms[-1]
    degenerate = (nT == 0.0) and (n0 > 0.0)
    if degenerate:
        chord = np.full_like(norms, math.nan)
        max_violation = math.nan
        min_d2 = math.nan
    else:
        frac = times / T
        chord = n0 ** (1.0 - frac) * nT ** frac
        max_violation = float(np.max(norms - chord))
        if np.all(norms > 0.0):
            logn = np.log(norms)
            d2 = logn[2:] - 2.0 * logn[1:-1] + logn[:-2]
            min_d2 = float(np.min(d2)) if d2.size else 0.0
        else:
            min_d2 = math.nan

    ratio_sup, bound_ok = _w_ratio(w, f, window, C0, omega, times)
    notice = "" if not degenerate else ("terminal norm vanished while the "
                                        "initial norm did not; the bound is vacuous there")
    return LogConvexityReport(True, notice, degenerate, times, norms, chord,
                              max_violation, min_d2, ratio_sup, bound_ok)


def _w_ratio(w, f, window, C0, omega, times):
    """sup_t ||w(t)|| / ||f(.,T)|| and whether C0 t e^(omega t) dominates it."""
    i_T = window.snapshot_index
    if w is None:
        return 0.0, True
    w_norms = l2_space(w.values[:, :i_T + 1], w.domain)
    fT_norm = l2_space(f.values[:, i_T], w.domain) if f is not None else 0.0
    if fT_norm == 0.0:
        if float(np.max(w_norms)) == 0.0:
            return 0.0, True
        return math.inf, False
    ratios = w_norms / fT_norm
    bound = C0 * times * np.exp(omega * times)
    ok = bool(np.all(ratios <= bound * (1.0 + 1e-9) + 1e-12))
    return float(np.max(ratios)), ok
