"""Property tests of the Crank-Nicolson marches over random coefficients.

The reference marches below solve every time level with
scipy.linalg.solve_banded, the way the solver did before it factored each
march's step matrix once. The factored marches must match them bit for bit,
and the discrete duality identity must hold to round-off, for random
a > 0, b and c on random grids and either observed boundary set.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from parastab.lab import make_context
from parastab.mesh import SpaceTimeField
from parastab.norms import l2_space_inner, l2_spacetime_inner
from parastab.operator import EllipticOperator
from parastab.solver import adjoint_gradients, adjoint_solve, forward_solve
from test_solver import functional_value


def _reference_matrices(lower, diag, upper, kappa):
    n = diag.size
    ab = np.zeros((3, n))
    ab[0, 1:] = -kappa * upper[:-1]
    ab[1, :] = 1.0 - kappa * diag
    ab[2, :-1] = -kappa * lower[1:]
    return ab, (kappa * lower, 1.0 + kappa * diag, kappa * upper)


def _reference_mv(bands, q):
    lower, diag, upper = bands
    out = diag * q
    out[1:] += lower[1:] * q[:-1]
    out[:-1] += upper[:-1] * q[1:]
    return out


def _reference_step(ab, rhs):
    return solve_banded((1, 1), ab, rhs, check_finite=False)


def reference_forward(dop, f, g, window):
    kappa = 0.5 * window.k
    ab, plus = _reference_matrices(dop.lower, dop.diag, dop.upper, kappa)
    u = np.empty((dop.domain.nx + 1, window.nt + 1))
    u[:, 0] = g
    for n in range(window.nt):
        rhs = _reference_mv(plus, u[:, n])
        rhs += kappa * (f.values[:, n] + f.values[:, n + 1])
        u[:, n + 1] = _reference_step(ab, rhs)
    return u


def reference_adjoint(dop, r_T, r_Q, r_G, window):
    domain = dop.domain
    nt = window.nt
    s = np.zeros((domain.nx + 1, nt + 1))
    s += window.quad_weights[None, :] * r_Q
    s[:, window.snapshot_index] += r_T
    sl = window.window_slice
    wx = domain.quad_weights
    for row, gi in zip(r_G, domain.gamma_indices):
        s[gi, sl] += window.window_weights * row / wx[gi]
    kappa = 0.5 * window.k
    ab, plus = _reference_matrices(dop.adj_lower, dop.adj_diag,
                                   dop.adj_upper, kappa)
    p = np.empty_like(s)
    p[:, nt] = _reference_step(ab, s[:, nt])
    for m in range(nt - 1, 0, -1):
        p[:, m] = _reference_step(ab, s[:, m] + _reference_mv(plus, p[:, m + 1]))
    p[:, 0] = s[:, 0] + _reference_mv(plus, p[:, 1])
    return p


coefficient = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def problems(draw):
    """A context with random smooth coefficients plus a payload seed."""
    nx = draw(st.integers(8, 40))
    nt = draw(st.integers(2, 60))
    gamma = draw(st.sampled_from([("left", "right"), ("left",)]))
    a0 = draw(st.floats(0.05, 3.0))
    a1 = draw(st.floats(-0.9, 0.9)) * a0
    b0, b1, c0, c1 = (draw(coefficient) for _ in range(4))
    op = EllipticOperator(a=lambda x: a0 + a1 * np.sin(3.0 * x),
                          b=lambda x: b0 + b1 * x,
                          c=lambda x: c0 + c1 * np.cos(2.0 * x))
    ctx = make_context(nx=nx, nt=nt, T=0.5, delta0=0.25, delta1=0.125,
                       op=op, gamma=gamma)
    return ctx, draw(st.integers(0, 2**32 - 1))


def payloads(ctx, seed):
    nx, nt = ctx.domain.nx, ctx.window.nt
    rng = np.random.default_rng(seed)
    sl = ctx.window.window_slice
    return (SpaceTimeField(rng.standard_normal((nx + 1, nt + 1)), ctx.domain,
                           ctx.window),
            rng.standard_normal(nx + 1),
            rng.standard_normal((nx + 1, nt + 1)),
            rng.standard_normal(nx + 1),
            rng.standard_normal((len(ctx.domain.gamma), sl.stop - sl.start)))


@settings(max_examples=60, deadline=None)
@given(problems())
def test_factored_marches_match_per_level_solves_bitwise(problem):
    ctx, seed = problem
    f, g, r_Q, r_T, r_G = payloads(ctx, seed)
    u = forward_solve(ctx.dop, f, g, ctx.window)
    assert np.array_equal(u.values, reference_forward(ctx.dop, f, g,
                                                      ctx.window))
    p = adjoint_solve(ctx.dop, r_T, SpaceTimeField(r_Q, ctx.domain,
                                                   ctx.window),
                      r_G, ctx.window)
    assert np.array_equal(p.values, reference_adjoint(ctx.dop, r_T, r_Q, r_G,
                                                      ctx.window))


@settings(max_examples=60, deadline=None)
@given(problems())
def test_duality_identity_holds_for_random_coefficients(problem):
    ctx, seed = problem
    f, g, r_Q, r_T, r_G = payloads(ctx, seed)
    window = ctx.window
    direct = functional_value(ctx, forward_solve(ctx.dop, f, g, window), r_Q,
                              r_T, r_G)
    p = adjoint_solve(ctx.dop, r_T, SpaceTimeField(r_Q, ctx.domain, window),
                      r_G, window)
    phi, g_grad = adjoint_gradients(p)
    paired = (l2_spacetime_inner(f.values, phi.values, ctx.domain, window)
              + l2_space_inner(g, g_grad, ctx.domain))
    # Payloads are O(1) and c <= 4 bounds the growth over t_end = 0.75, so
    # round-off stays near 1e-14; the absolute floor covers draws where the
    # functional itself nearly cancels.
    assert paired == pytest.approx(direct, rel=1e-10, abs=1e-12)
