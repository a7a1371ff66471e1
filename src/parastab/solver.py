"""Crank-Nicolson marching for the forward and adjoint parabolic problems.

Forward scheme for u_t = Au + f with u(., 0) = g, step k, kappa = k/2:

    (I - kappa A) u^{n+1} = (I + kappa A) u^n + kappa (f^n + f^{n+1})

The adjoint solve produces the multiplier field p of the linear functional

    Phi(f, g) = <u, r_Q>_{L2(Q)} + <u(., T), r_T>_{L2(Omega)} + <u|_Gamma, r_G>

by marching the transposed recursion backward in time. Payload terms enter
as per-level sources carrying their own quadrature weights, so the discrete
duality identity

    Phi = <f, phi>_{L2(Q)} + <g, p(., 0)>_{L2(Omega)}

holds to round-off, with phi extracted by adjoint_gradients. This is the
exact transpose of the marching scheme in the trapezoid inner products, not
a separate discretization of the continuous adjoint equation.

Each march factors the constant matrix (I - kappa A), or its adjoint, once
with LAPACK's tridiagonal LU (dgttrf, partial pivoting) and builds the
explicit bands of (I + kappa A) once; every level then only applies the
stored factors (dgttrs). The arithmetic is the one a per-level tridiagonal
solve performs, so the iterates are bit-identical to it. A zero pivot is
reported at the first level the march solves, and every level checks its
iterate for non-finite values.

The forward level loop, cn_march, also marches m columns at once: LAPACK
applies the factors to each column with the arithmetic of a single
right-hand side, so every column equals its own forward_solve bit for bit.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .mesh import SpaceTimeField, TimeWindow
from .operator import DiscreteOperator, band_mv, column_bands
from .stencils import fd_first

# A field handed to a residual check should satisfy its equation to a few
# percent in the relative max norm; noisier fields draw a warning.
RESIDUAL_WARN_TOL = 5e-2


def _cn_factors(lower, diag, upper, kappa, tag, first_level, ndim=1):
    """LU factors of (I - kappa L) plus the bands of (I + kappa L), shaped
    for a state with ndim axes."""
    *lu, info = dgttrf(-kappa * lower[1:], 1.0 - kappa * diag,
                       -kappa * upper[:-1])
    if info > 0:
        raise RuntimeError(f"singular time-step system in {tag} solve at "
                           f"level {first_level}")
    plus = column_bands(kappa * lower, 1.0 + kappa * diag, kappa * upper,
                        ndim)
    return tuple(lu), plus


def solve_banded(lu, rhs, tag, level):
    """One implicit level: apply the stored factors of (I - kappa L) to rhs."""
    out, _ = dgttrs(*lu, rhs)  # its info only flags an illegal argument
    if not np.all(np.isfinite(out)):
        raise RuntimeError(f"non-finite iterate in {tag} solve at level {level}")
    return out


def forward_solve(dop: DiscreteOperator, f: SpaceTimeField | None,
                  g: np.ndarray | None, window: TimeWindow) -> SpaceTimeField:
    """Solve u_t = Au + f on (0, T + delta0) with u(., 0) = g installed exactly."""
    nx = dop.domain.nx
    if g is None:
        g = np.zeros(nx + 1)
    g = np.asarray(g, dtype=float)
    if g.shape != (nx + 1,):
        raise ValueError(f"initial value shape {g.shape}, expected {(nx + 1,)}")
    u = np.empty((nx + 1, window.nt + 1))
    u[:, 0] = g
    source_sum = None
    if f is not None:
        if f.values.shape != u.shape:
            raise ValueError("source field grid does not match the window")
        fv = f.values

        def source_sum(n):
            return fv[:, n] + fv[:, n + 1]

    def record(n, state):
        u[:, n] = state

    cn_march(dop, window, g, record, source_sum)
    return SpaceTimeField(u, dop.domain, window)


def cn_march(dop: DiscreteOperator, window: TimeWindow, state: np.ndarray,
             record, source_sum=None, *, _last_level=None) -> None:
    """The forward Crank-Nicolson level loop from u^0 = state.

    state has shape (nx+1,), or (nx+1, m) to march m columns under one
    factorization. record(n, u^n) receives every new level n = 1..last,
    where last is nt unless _last_level stops the march earlier (callers
    that only measure stop at the end of the lateral window); source_sum(n),
    when given, returns f^n + f^{n+1} shaped like the state.
    """
    kappa = 0.5 * window.k
    lu, plus = _cn_factors(dop.lower, dop.diag, dop.upper, kappa, "forward",
                           1, state.ndim)
    last = window.nt if _last_level is None else _last_level
    for n in range(last):
        rhs = band_mv(plus, state)
        if source_sum is not None:
            rhs += kappa * source_sum(n)
        state = solve_banded(lu, rhs, "forward", n + 1)
        record(n + 1, state)


def adjoint_solve(dop: DiscreteOperator,
                  terminal_payload: np.ndarray | None,
                  interior_source: SpaceTimeField | None,
                  boundary_source: np.ndarray | None,
                  window: TimeWindow) -> SpaceTimeField:
    """Backward multiplier field for the payload functional.

    terminal_payload pairs with u(., T) in L2(Omega) at the snapshot level;
    interior_source pairs with u in L2(Q); boundary_source has one row per
    observed endpoint (domain.gamma order) over the lateral window levels and
    pairs in the window trace product. Column 0 of the result is not a solver
    level: it stores the derivative of the functional with respect to the
    initial value, finished without a solve.
    """
    domain = dop.domain
    nx, nt = domain.nx, window.nt
    s = np.zeros((nx + 1, nt + 1))
    if interior_source is not None:
        if interior_source.values.shape != s.shape:
            raise ValueError("interior payload grid does not match the window")
        s += window.quad_weights[None, :] * interior_source.values
    if terminal_payload is not None:
        payload = np.asarray(terminal_payload, dtype=float)
        if payload.shape != (nx + 1,):
            raise ValueError(f"terminal payload shape {payload.shape}, "
                             f"expected {(nx + 1,)}")
        s[:, window.snapshot_index] += payload
    if boundary_source is not None:
        rows = np.atleast_2d(np.asarray(boundary_source, dtype=float))
        sl = window.window_slice
        ww = window.window_weights
        if rows.shape != (len(domain.gamma), ww.size):
            raise ValueError(f"boundary payload shape {rows.shape}, expected "
                             f"{(len(domain.gamma), ww.size)}")
        wx = domain.quad_weights
        # Point traces carry no spatial measure; dividing by the trapezoid
        # weight makes the weighted pairing reproduce the plain window sum.
        for row, gi in zip(rows, domain.gamma_indices):
            s[gi, sl] += ww * row / wx[gi]

    kappa = 0.5 * window.k
    lu, plus = _cn_factors(dop.adj_lower, dop.adj_diag, dop.adj_upper, kappa,
                           "adjoint", nt)
    p = np.empty_like(s)
    p[:, nt] = solve_banded(lu, s[:, nt], "adjoint", nt)
    for m in range(nt - 1, 0, -1):
        rhs = s[:, m] + band_mv(plus, p[:, m + 1])
        p[:, m] = solve_banded(lu, rhs, "adjoint", m)
    p[:, 0] = s[:, 0] + band_mv(plus, p[:, 1])
    return SpaceTimeField(p, dop.domain, window)


def adjoint_gradients(p: SpaceTimeField) -> tuple[SpaceTimeField, np.ndarray]:
    """Riesz gradients (source field in L2(Q), initial value in L2(Omega)).

    The half-step averages below are exact: eliminating the quadrature
    weights from the transposed recursion leaves phi^0 = p^1, interior
    phi^m = (p^m + p^{m+1})/2, phi^nt = p^nt, and column 0 of the multiplier
    field is already the initial-value gradient.
    """
    pv = p.values
    phi = np.empty_like(pv)
    phi[:, 0] = pv[:, 1]
    phi[:, 1:-1] = 0.5 * (pv[:, 1:-1] + pv[:, 2:])
    phi[:, -1] = pv[:, -1]
    return SpaceTimeField(phi, p.domain, p.window), pv[:, 0].copy()


def time_shift(field: SpaceTimeField) -> SpaceTimeField:
    """Restrict a field to its lateral window and reindex time to start at 0.

    Columns are copied, never interpolated: the window endpoints sit on the
    grid by construction, so the translated frame shares the step k.
    """
    window = field.window
    return SpaceTimeField(field.values[:, window.window_slice].copy(),
                          field.domain, window.shifted())


def time_derivative(field: SpaceTimeField) -> SpaceTimeField:
    """Second-order finite-difference time derivative on the same grid."""
    dv = fd_first(field.values, field.window.k, axis=1)
    return SpaceTimeField(dv, field.domain, field.window)


def equation_residual(u: SpaceTimeField, f: SpaceTimeField | None,
                      dop: DiscreteOperator) -> float:
    """Relative max-norm residual of u_t = Au + f on u's own frame.

    Only interior time columns count: the one-sided time stencils at the
    frame ends are not part of the claim.
    """
    ut = fd_first(u.values, u.window.k, axis=1)
    res = ut - dop.apply(u.values)
    if f is not None:
        res = res - f.values
    scale = max(float(np.max(np.abs(ut))), 1e-300)
    return float(np.max(np.abs(res[:, 1:-1]))) / scale
