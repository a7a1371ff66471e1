"""Property test of the Carleman sweep against a per-s reference quadrature.

The reference below evaluates both sides of the weighted inequality one s
at a time, recomputing every stencil for each s, the way the audit did
before the sweep computed its s-independent work once. The sweep must
reproduce its lhs and rhs bit for bit for random a > 0, b and c, either
observed boundary set, both exponent selectors and boundary modes, with or
without a source, over random increasing s values.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from parastab.carleman import constant_sweep
from parastab.lab import make_context
from parastab.mesh import SpaceTimeField
from parastab.operator import EllipticOperator
from parastab.solver import forward_solve, time_derivative, time_shift
from parastab.stencils import fd_first, fd_second
from parastab.weights import (EXP_WEIGHTED, LITERAL_TRUNCATED,
                              UNDERFLOW_EXPONENT, WeightConfig, eval_weights)


def reference_sides(u, f, weights, s, p, boundary_weighting):
    """(lhs, rhs) at one s, every stencil rebuilt for this s alone."""
    window = weights.shifted_window
    domain = weights.domain
    h, k = domain.h, window.k
    interior = slice(1, window.nt)
    wx = domain.quad_weights
    wt = window.quad_weights[interior]

    sr = s * weights.rho1_shift[:, interior]
    expo = 2.0 * s * weights.theta1_shift[:, interior]
    ef = np.zeros_like(expo)
    alive = expo >= UNDERFLOW_EXPONENT
    ef[alive] = np.exp(expo[alive])

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
        rhs = float(np.sum(wx[:, None] * wt[None, :] * sr ** p * (fv * fv)
                           * ef))

    if boundary_weighting == LITERAL_TRUNCATED:
        keep = weights.l1_shift[interior] >= 4.0 * k * window.t_end
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


coefficient = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def audits(draw):
    """A random operator, data pair and sweep configuration."""
    nx = draw(st.integers(8, 32))
    nt = draw(st.integers(8, 48))
    gamma = draw(st.sampled_from([("left", "right"), ("left",), ("right",)]))
    a0 = draw(st.floats(0.05, 3.0))
    a1 = draw(st.floats(-0.9, 0.9)) * a0
    b0, b1, c0, c1 = (draw(coefficient) for _ in range(4))
    op = EllipticOperator(a=lambda x: a0 + a1 * np.sin(3.0 * x),
                          b=lambda x: b0 + b1 * x,
                          c=lambda x: c0 + c1 * np.cos(2.0 * x))
    ctx = make_context(nx=nx, nt=nt, T=0.5, delta0=0.25, delta1=0.125,
                       op=op, gamma=gamma)
    lam = draw(st.floats(0.3, 3.0))
    weights = eval_weights(lam, ctx.window, ctx.domain)
    # s0 from a little below the default 32/M to far past underflow, and an
    # increasing sweep of 2-8 values spanning at least a factor 8
    s0 = draw(st.floats(1.0, 256.0)) / weights.M
    inner = draw(st.lists(st.floats(1.0, 64.0), max_size=6))
    top = draw(st.floats(8.0, 64.0))
    factors = sorted({1.0, top, *inner})
    s_values = tuple(dict.fromkeys(s0 * m for m in factors))
    config = WeightConfig(s_values=s_values,
                          p=draw(st.sampled_from([0, 1])),
                          boundary_weighting=draw(st.sampled_from(
                              [EXP_WEIGHTED, LITERAL_TRUNCATED])))
    seed = draw(st.integers(0, 2**32 - 1))
    sourced = draw(st.booleans())
    return ctx, weights, config, seed, sourced


@settings(max_examples=80, deadline=None)
@given(audits())
def test_sweep_matches_per_s_reference_quadrature(audit):
    ctx, weights, config, seed, sourced = audit
    rng = np.random.default_rng(seed)
    nx, nt = ctx.domain.nx, ctx.window.nt
    g = rng.standard_normal(nx + 1)
    f = (SpaceTimeField(rng.standard_normal((nx + 1, nt + 1)), ctx.domain,
                        ctx.window) if sourced else None)
    u = forward_solve(ctx.dop, f, g, ctx.window)
    # the audited pair: u_t on the shifted frame and the source's derivative
    v = time_derivative(time_shift(u))
    fv = None if f is None else time_derivative(time_shift(f))

    rows = constant_sweep(v, fv, weights, config)
    assert [r.s for r in rows] == list(config.s_values)
    for row in rows:
        lhs, rhs = reference_sides(v, fv, weights, row.s, config.p,
                                   config.boundary_weighting)
        assert row.lhs == lhs, (row, lhs)
        assert row.rhs == rhs, (row, rhs)
