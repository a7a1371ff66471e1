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
stored factors (dgttrs). Both routines are scipy's compiled wrappers,
which parastab.lapack loads without importing scipy.linalg. The arithmetic
is the one a per-level tridiagonal solve performs, so the iterates are
bit-identical to it. A zero pivot is reported at the first level the march
solves.

One level loop, _march, serves every march. cn_march runs levels 1..nt
from u^0 = g, for one column or m at once, and alone forms the source of
level n, kappa (f^{n-1} + f^n), from the samples f^n its callers hand it.
LAPACK applies the factors to each column with the arithmetic of a single
right-hand side, so every column equals its own forward_solve bit for bit.
adjoint_march runs levels nt..1 from a zero state with the weighted
payloads of m columns as sources, s[j][:, m] at level m for column j, and
so equals adjoint_solve of each payload bit for bit; adjoint_solve is
its one-column case. Its first level equals solving s[j][:, nt] bit for
bit: the band product of zero is +-0.0, and adding +-0.0 changes no entry
of s, which adjoint_sources builds by adding onto +0.0 and so never holds
-0.0.

The loop allocates nothing per level: each march keeps two work buffers
and one scratch array shaped like its state, forms the band product in
place and solves in place, so the array a level hands to record(n, u) is
overwritten by later levels and callers copy what they keep. Nor do the
levels check anything. A non-finite entry stays non-finite under the band
product and the tridiagonal solve (inf and nan never vanish there), so one
check of the last state tells whether any level failed. The march,
callbacks included, runs with overflow, invalid and divide faults
ignored; when its last state is not finite it marches again the checked
way, under the caller's errstate and with every iterate checked, so a
failure is reported as before: the numpy fault the caller's errstate
raises, or a non-finite iterate at the first level that has one. A state
of no columns returns before the loop: dgttrs corrupts memory when handed
zero right-hand sides.
"""
from __future__ import annotations

import numpy as np

from .lapack import dgttrf, dgttrs
from .mesh import SpaceTimeField, TimeWindow, blocked_max
from .operator import DiscreteOperator, band_mv, column_bands
from .stencils import fd_first

# A field handed to a residual check should satisfy its equation to a few
# percent in the relative max norm; noisier fields draw a warning.
RESIDUAL_WARN_TOL = 5e-2


def _cn_factors(lower, diag, upper, kappa, tag, first_level, columns=1):
    """LU factors of (I - kappa L) plus the bands of (I + kappa L), tiled
    for a state of `columns` columns."""
    *lu, info = dgttrf(-kappa * lower[1:], 1.0 - kappa * diag,
                       -kappa * upper[:-1])
    if info > 0:
        raise RuntimeError(f"singular time-step system in {tag} solve at "
                           f"level {first_level}")
    plus = column_bands(kappa * lower, 1.0 + kappa * diag, kappa * upper,
                        columns)
    return tuple(lu), plus


def solve_banded(lu, rhs):
    """One implicit level: apply the stored factors of (I - kappa L) to rhs,
    in place when rhs is F-contiguous, and return the solution."""
    # dgttrs's info only flags an illegal argument
    out, _ = dgttrs(*lu, rhs, overwrite_b=1)
    return out


def _march(lu, plus, state, levels, record, source, tag):
    """March state through `levels`: level n adds source(n, out), if any,
    to plus*u (out is a free buffer) and solves with lu, then calls
    record(n, u). Returns the last state, checked once (module docstring).
    """
    if state.size == 0:
        return state

    def run(record):
        # F order: dgttrs solves an F-contiguous right-hand side in place
        u = np.array(state, dtype=float, order="F")
        work, scratch = np.empty_like(u), np.empty_like(u)
        for n in levels:
            band_mv(plus, u, work, scratch)
            if source is not None:
                work += source(n, scratch)
            u, work = solve_banded(lu, work), u
            record(n, u)
        return u

    def check(n, u):
        if not np.all(np.isfinite(u)):
            raise RuntimeError(f"non-finite iterate in {tag} solve at level {n}")

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        last = run(record)
    if not np.all(np.isfinite(last)):
        run(check)
    return last


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
    source = None
    if f is not None:
        if f.values.shape != u.shape:
            raise ValueError("source field grid does not match the window")
        fv = f.values

        def source(n):
            return fv[:, n]

    def record(n, state):
        u[:, n] = state

    cn_march(dop, window, g, record, source)
    return SpaceTimeField(u, dop.domain, window)


def cn_march(dop: DiscreteOperator, window: TimeWindow, state: np.ndarray,
             record, source=None, *, _last_level=None) -> None:
    """The forward Crank-Nicolson march from u^0 = state.

    state has shape (nx+1,), or (nx+1, m) to march m columns under one
    factorization; it is read, never written, and with m = 0 nothing is
    marched or recorded. record(n, u^n) receives every new level
    n = 1..last, where last is nt unless _last_level stops the march
    earlier (callers that only measure stop at the end of the lateral
    window); u^n is a work buffer that later levels overwrite, so record
    copies what it keeps. source(n), when given, returns the sample f^n
    shaped like the state, for n = 0..last; level n adds
    kappa (f^{n-1} + f^n).
    """
    kappa = 0.5 * window.k
    lu, plus = _cn_factors(dop.lower, dop.diag, dop.upper, kappa, "forward",
                           1, state.shape[1] if state.ndim == 2 else 1)
    last = window.nt if _last_level is None else _last_level
    level_source = None
    if source is not None:
        def level_source(n, out):
            np.add(source(n - 1), source(n), out=out)
            return np.multiply(kappa, out, out=out)

    _march(lu, plus, state, range(1, last + 1), record, level_source,
           "forward")


def adjoint_solve(dop: DiscreteOperator,
                  terminal_payload: np.ndarray | None,
                  interior_source: SpaceTimeField | None,
                  boundary_source: np.ndarray | None,
                  window: TimeWindow) -> SpaceTimeField:
    """Backward multiplier field for the payload functional: the one-column
    case of adjoint_march on the weighted payload of adjoint_sources.

    Column 0 of the result is not a solver level: it stores the derivative
    of the functional with respect to the initial value, finished without a
    solve.
    """
    s = adjoint_sources(dop, terminal_payload, interior_source,
                        boundary_source, window)
    return SpaceTimeField(adjoint_march(dop, window, s[None])[0], dop.domain,
                          window)


def adjoint_sources(dop: DiscreteOperator,
                    terminal_payload: np.ndarray | None,
                    interior_source: SpaceTimeField | None,
                    boundary_source: np.ndarray | None,
                    window: TimeWindow) -> np.ndarray:
    """The payloads weighted into per-level adjoint sources, shape
    (nx+1, nt+1).

    terminal_payload pairs with u(., T) in L2(Omega) at the snapshot level;
    interior_source pairs with u in L2(Q); boundary_source has one row per
    observed endpoint (domain.gamma order) over the lateral window levels and
    pairs in the window trace product. The sources are built by adding onto
    +0.0, so no entry is -0.0; a payload that is not finite, or overflows
    once weighted, is refused.
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
    if not np.all(np.isfinite(s)):
        raise ValueError("adjoint payload is not finite, or overflows once "
                         "weighted")
    return s


def adjoint_march(dop: DiscreteOperator, window: TimeWindow,
                  sources: np.ndarray) -> np.ndarray:
    """Multiplier fields of m weighted payloads under one factorization.

    sources has shape (m, nx+1, nt+1), one adjoint_sources array per
    column, and the result has the same shape: result[j] is the multiplier
    field of sources[j], C-contiguous like a field of its own, so that
    products with it take the path they take for one column. Each column
    equals the march of its payload alone bit for bit (module docstring).
    """
    m, rows, _ = sources.shape
    nt = window.nt
    kappa = 0.5 * window.k
    lu, plus = _cn_factors(dop.adj_lower, dop.diag, dop.adj_upper, kappa,
                           "adjoint", nt, m)
    p = np.empty(sources.shape)

    def store(level, state):
        p[:, :, level] = state.T

    last = _march(lu, plus, np.zeros((rows, m)), range(nt, 0, -1), store,
                  lambda level, out: sources[:, :, level].T, "adjoint")
    p[:, :, 0] = sources[:, :, 0] + band_mv(plus, last).T
    return p


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


def equation_residual(u: SpaceTimeField, ut: np.ndarray,
                      f: SpaceTimeField | None,
                      dop: DiscreteOperator) -> float:
    """Relative max-norm residual of u_t = Au + f on u's own frame, with
    ut the caller's time_derivative values of u.

    Only interior time columns count: the one-sided time stencils at the
    frame ends are not part of the claim. Both maxima are taken a block of
    columns at a time (mesh.blocked_max), so no temporary is field-sized.
    """
    uv = u.values
    fv = None if f is None else f.values

    def block_residual(sl):
        # |ut - Au - f| on the columns of sl
        res = ut[:, sl] - dop.apply(uv[:, sl])
        if fv is not None:
            res -= fv[:, sl]
        return np.max(np.abs(res, out=res))

    nt = ut.shape[1] - 1
    scale = max(float(blocked_max(lambda sl: np.max(np.abs(ut[:, sl])),
                                  0, nt + 1)), 1e-300)
    return float(blocked_max(block_residual, 1, nt)) / scale
