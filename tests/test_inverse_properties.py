"""Property tests of the separable least-squares solve over random
operators, regularization weights, noise seeds and data scales.

For every draw the observation matrix must be the forward map column for
column (bit for bit against forward_solve), minimize must end on the PDE
gradient check, and no nearby point may have a lower objective. Scaling
the truth by a power of two scales every estimate and norm of recover by
exactly that power and leaves its errors and verdicts as they are.
"""
import functools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parastab.admissible import make_admissible_pair
from parastab.inverse import (RTOL, InverseProblemSpec, minimize,
                              objective_and_gradient, observation_matrix,
                              observed_vector, recover, synthesize_data)
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
                              noise_level=0.05, seed=seed)
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
    zero_grad_norm = np.linalg.norm(obs.T @ observed_vector(data, ctx))
    assert res.grad_norm <= RTOL * zero_grad_norm and res.converged

    best = np.concatenate([res.phi_est, res.g_est])
    scale = max(1.0, float(np.linalg.norm(best)))
    rng = np.random.default_rng(seed)
    for _ in range(3):
        v = rng.standard_normal(best.size)
        v *= 1e-2 * scale / np.linalg.norm(v)
        J, _ = objective_and_gradient(spec, best + v, data, ctx)
        assert J >= res.final_objective


# the README rate run: its grid, noise levels and seed
_README_CTX = make_context(nx=32, nt=128, T=0.25, delta0=0.25,
                           delta1=0.125)
_README_NOISE = [0.1, 0.01, 0.001]


@functools.cache
def _recovered(alpha_f, alpha_g, k):
    x = _README_CTX.domain.points
    truth = (2.0 ** k * benchmark_source(x), 2.0 ** k * benchmark_initial(x))
    spec = InverseProblemSpec(alpha_f=alpha_f, alpha_g=alpha_g, seed=7)
    return recover(spec, _README_NOISE, truth, _README_CTX)


@settings(max_examples=25, deadline=None)
@given(k=st.integers(-40, 40),
       alphas=st.just((0.0, 0.0)) | st.tuples(_WEIGHT, _WEIGHT))
# the README weights, whose gradient norms at this scale read about 2e-9:
# an absolute tolerance of 1e-10 called every level unconverged there
@example(k=20, alphas=(10.0, 1.0))
# unregularized noisy levels, whose certificates fail at amplitude 1
@example(k=-40, alphas=(0.0, 0.0))
def test_the_certificate_is_scale_free(k, alphas):
    scale = 2.0 ** k
    for (_, res, row), (_, res0, row0) in zip(_recovered(*alphas, k),
                                              _recovered(*alphas, 0)):
        assert (row.err_f, row.err_g, row.converged, res.converged) == (
            row0.err_f, row0.err_g, row0.converged, res0.converged)
        assert np.array_equal(res.phi_est, scale * res0.phi_est)
        assert np.array_equal(res.g_est, scale * res0.g_est)
        assert row.grad_norm == scale * row0.grad_norm
        assert row.combined_norm_clean == scale * row0.combined_norm_clean
        assert row.combined_norm_noisy == scale * row0.combined_norm_noisy
