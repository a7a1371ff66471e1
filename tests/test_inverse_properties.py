"""Property tests of the separable least-squares solve over random
operators, regularization weights and noise seeds.

For every draw the observation matrix must be the forward map column for
column (bit for bit against forward_solve), minimize must end on the PDE
gradient check, and no nearby point may have a lower objective.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from parastab.admissible import make_admissible_pair
from parastab.inverse import (InverseProblemSpec, minimize,
                              objective_and_gradient, observation_matrix,
                              observed_vector, synthesize_data)
from parastab.lab import benchmark_initial, benchmark_source, make_context
from parastab.mesh import SpaceTimeField
from parastab.operator import EllipticOperator
from parastab.solver import forward_solve

_WEIGHT = st.floats(1e-6, 10.0)


def _context(a, b, c, delta1):
    return make_context(nx=8, nt=32, T=0.25, delta0=0.25, delta1=delta1,
                        op=EllipticOperator(a=a, b=b, c=c))


def _observed_column(ctx, phi, g):
    f = SpaceTimeField(np.repeat(phi[:, None], ctx.window.nt + 1, axis=1),
                       ctx.domain, ctx.window)
    u = forward_solve(ctx.dop, f, g, ctx.window).values
    ww = np.sqrt(ctx.window.window_weights)
    trace = u[np.array(ctx.domain.gamma_indices), ctx.window.window_slice]
    return np.concatenate([np.sqrt(ctx.domain.quad_weights)
                           * u[:, ctx.window.snapshot_index],
                           (ww[None, :] * trace).ravel()])


@settings(max_examples=40, deadline=None)
@given(a=_WEIGHT, b=_WEIGHT, c=_WEIGHT, alpha_f=_WEIGHT, alpha_g=_WEIGHT,
       seed=st.integers(0, 2**32 - 1),
       delta1=st.sampled_from([0.125, 0.25]))
def test_separable_solve_is_the_least_squares_minimizer(a, b, c, alpha_f,
                                                        alpha_g, seed,
                                                        delta1):
    # delta1 = T opens the trace window at the initial level
    ctx = _context(a, b, c, delta1)
    n = ctx.domain.nx + 1
    spec = InverseProblemSpec(alpha_f=alpha_f, alpha_g=alpha_g,
                              noise_level=0.05, seed=seed, grad_tol=1e-10)
    obs = observation_matrix(ctx)
    eye = np.eye(n)
    for j in range(n):
        assert np.array_equal(obs[:, j],
                              _observed_column(ctx, eye[j], None))
        assert np.array_equal(obs[:, n + j],
                              _observed_column(ctx, np.zeros(n), eye[j]))

    x = ctx.domain.points
    f = SpaceTimeField(np.repeat(benchmark_source(x)[:, None],
                                 ctx.window.nt + 1, axis=1),
                       ctx.domain, ctx.window)
    pair = make_admissible_pair(ctx, f=f, g=benchmark_initial(x))
    data = synthesize_data(pair, spec, ctx)
    assert observed_vector(data, ctx).shape == (obs.shape[0],)
    res = minimize(spec, data, ctx)
    assert res.grad_norm <= spec.grad_tol and res.converged

    best = np.concatenate([res.phi_est, res.g_est])
    scale = max(1.0, float(np.linalg.norm(best)))
    rng = np.random.default_rng(seed)
    for _ in range(3):
        v = rng.standard_normal(best.size)
        v *= 1e-2 * scale / np.linalg.norm(v)
        J, _ = objective_and_gradient(spec, best + v, data, ctx)
        assert J >= res.final_objective
