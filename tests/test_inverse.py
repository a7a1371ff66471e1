"""Reconstruction pipeline: noisy data synthesis, adjoint gradients, the
certified least-squares solve, and the noise-sweep rate experiment."""
import math
from dataclasses import replace

import numpy as np
import pytest

from parastab import inverse, lapack
from parastab.admissible import make_admissible_pair
from parastab.inverse import (InverseProblemSpec, minimize,
                              objective_and_gradient, observation_matrix,
                              observed_vector, rate_experiment, recover,
                              rel_error, synthesize_data, unpack_params)
from parastab.lab import benchmark_initial, benchmark_source, make_context
from parastab.measurement import MeasurementData, measure
from parastab.mesh import SpaceTimeField
from parastab.solver import forward_solve

# Reconstruction context: short horizon and a wide trace window keep the
# initial value observable enough for the optimizer to make progress.
CTX = make_context(nx=32, nt=128, T=0.25, delta0=0.25, delta1=0.125)


def truth_arrays(ctx):
    x = ctx.domain.points
    return benchmark_source(x), benchmark_initial(x)


def truth_pair(ctx, phi, g):
    f = SpaceTimeField(np.repeat(phi[:, None], ctx.window.nt + 1, axis=1),
                       ctx.domain, ctx.window)
    return make_admissible_pair(ctx, f=f, g=g)


def rel_l2(est, truth, weights):
    num = math.sqrt(float(np.sum(weights * (est - truth) ** 2)))
    den = math.sqrt(float(np.sum(weights * truth ** 2)))
    return num / den


def test_spec_validation():
    for fields, message in [
        ({"alpha_f": -1.0}, "^regularization weights must be nonnegative$"),
        ({"alpha_g": -1.0}, "^regularization weights must be nonnegative$"),
        ({"alpha_f": math.nan},
         "^regularization weight alpha_f = nan is not finite$"),
        ({"alpha_g": math.inf},
         "^regularization weight alpha_g = inf is not finite$"),
        ({"noise_level": -0.1}, "^noise level must be nonnegative$"),
        ({"noise_level": math.nan}, "^noise level nan is not finite$"),
        ({"noise_level": math.inf}, "^noise level inf is not finite$"),
        # the noise is checked first, so a level whose weights were scaled
        # by its square reports the noise, not the product
        ({"noise_level": math.inf, "alpha_f": math.inf},
         "^noise level inf is not finite$"),
        ({"alpha_f": True}, "^alpha_f must be a real number, got True$"),
        ({"alpha_g": "1"}, "^alpha_g must be a real number, got '1'$"),
        ({"noise_level": True},
         "^noise_level must be a real number, got True$"),
        ({"seed": -1}, "^noise seed must be nonnegative, got -1$"),
        ({"seed": 2.5}, "^seed must be an integer, got 2.5$"),
        ({"seed": math.nan}, "^seed must be an integer, got nan$"),
        ({"seed": True}, "^seed must be an integer, got True$"),
    ]:
        with pytest.raises(ValueError, match=message):
            InverseProblemSpec(**fields)
    assert InverseProblemSpec(seed=np.int64(3)).seed == 3


def test_pack_unpack_roundtrip():
    phi, g = truth_arrays(CTX)
    p = np.concatenate([phi, g])
    phi2, g2 = unpack_params(p, CTX)
    assert np.array_equal(phi2, phi)
    assert np.array_equal(g2, g)
    with pytest.raises(ValueError, match="shape"):
        unpack_params(p[:-1], CTX)


def test_zero_noise_returns_clean_measurement_bitwise():
    phi, g = truth_arrays(CTX)
    pair = truth_pair(CTX, phi, g)
    data = synthesize_data(pair, InverseProblemSpec(), CTX)
    clean = measure(forward_solve(CTX.dop, pair.f, pair.g, CTX.window))
    assert np.array_equal(data.final_snapshot, clean.final_snapshot)
    assert np.array_equal(data.lateral_trace, clean.lateral_trace)
    assert data.combined_norm == clean.combined_norm


def test_synthesis_is_seeded_and_seed_sensitive():
    phi, g = truth_arrays(CTX)
    pair = truth_pair(CTX, phi, g)
    spec = InverseProblemSpec(noise_level=0.05, seed=21)
    a = synthesize_data(pair, spec, CTX)
    b = synthesize_data(pair, spec, CTX)
    assert np.array_equal(a.final_snapshot, b.final_snapshot)
    assert np.array_equal(a.lateral_trace, b.lateral_trace)
    c = synthesize_data(pair, InverseProblemSpec(noise_level=0.05, seed=22), CTX)
    assert not np.array_equal(a.final_snapshot, c.final_snapshot)


def test_noise_scaling_on_constant_solution():
    # g = 1 with the canonical operator keeps u identically 1; each data
    # part is perturbed by exactly the requested relative L2 amount, so the
    # L2 combined reading lands in the advertised bracket deterministically.
    # The stored norm fields remain H2 readings of the noisy arrays, which
    # blow up with the mesh; the bracket only makes sense in L2.
    ctx = make_context(nx=32, nt=128)
    pair = make_admissible_pair(ctx, f=None, g=np.ones(ctx.domain.nx + 1))
    spec = InverseProblemSpec(noise_level=0.01, seed=11)
    data = synthesize_data(pair, spec, ctx)
    clean = measure(forward_solve(ctx.dop, None, pair.g, ctx.window))
    wx = ctx.domain.quad_weights
    ww = ctx.window.window_weights

    snap_shift = math.sqrt(float(np.sum(
        wx * (data.final_snapshot - clean.final_snapshot) ** 2)))
    snap_scale = math.sqrt(float(np.sum(wx * clean.final_snapshot ** 2)))
    assert abs(snap_shift / snap_scale - 0.01) < 1e-12
    trace_shift = math.sqrt(float(np.sum(
        ww[None, :] * (data.lateral_trace - clean.lateral_trace) ** 2)))
    trace_scale = math.sqrt(float(np.sum(ww[None, :]
                                         * clean.lateral_trace ** 2)))
    assert abs(trace_shift / trace_scale - 0.01) < 1e-12

    l2_combined = math.sqrt(float(np.sum(wx * data.final_snapshot ** 2))
                            + float(np.sum(ww[None, :]
                                           * data.lateral_trace ** 2)))
    assert 0.97 * math.sqrt(2.0) <= l2_combined <= 1.03 * math.sqrt(2.0)


def test_objective_zero_at_truth():
    phi, g = truth_arrays(CTX)
    pair = truth_pair(CTX, phi, g)
    spec = InverseProblemSpec(alpha_f=0.0, alpha_g=0.0)
    data = synthesize_data(pair, spec, CTX)
    J, grad = objective_and_gradient(spec, np.concatenate([phi, g]),
                                     data, CTX)
    assert J == 0.0
    assert np.all(grad == 0.0)


def test_zero_data_zero_params_is_global_minimum():
    n = CTX.domain.nx + 1
    pair = make_admissible_pair(CTX, f=None, g=np.zeros(n))
    spec = InverseProblemSpec(alpha_f=0.5, alpha_g=0.5)
    data = synthesize_data(pair, spec, CTX)
    J, grad = objective_and_gradient(
        spec, np.zeros(2 * n), data, CTX)
    assert J == 0.0
    assert np.all(grad == 0.0)

    res = minimize(spec, data, CTX)
    assert res.converged
    assert res.final_objective == 0.0
    assert np.all(res.phi_est == 0.0)
    assert np.all(res.g_est == 0.0)


def test_gradient_matches_central_differences_separable():
    phi, g = truth_arrays(CTX)
    pair = truth_pair(CTX, phi, g)
    spec = InverseProblemSpec(alpha_f=0.3, alpha_g=0.7, noise_level=0.02,
                              seed=5)
    data = synthesize_data(pair, spec, CTX)
    n = CTX.domain.nx + 1
    rng = np.random.default_rng(42)
    step = 1e-6
    for _ in range(10):
        p0 = rng.standard_normal(2 * n)
        _, grad = objective_and_gradient(spec, p0, data, CTX)
        v = rng.standard_normal(2 * n)
        v /= np.linalg.norm(v)
        Jp, _ = objective_and_gradient(spec, p0 + step * v, data, CTX)
        Jm, _ = objective_and_gradient(spec, p0 - step * v, data, CTX)
        fd = (Jp - Jm) / (2.0 * step)
        an = float(np.dot(grad, v))
        assert abs(fd - an) <= 1e-5 * abs(an)


def test_gradient_matches_central_differences_coordinates():
    phi, g = truth_arrays(CTX)
    pair = truth_pair(CTX, phi, g)
    spec = InverseProblemSpec(alpha_f=0.1, alpha_g=0.2)
    data = synthesize_data(pair, spec, CTX)
    n = CTX.domain.nx + 1
    rng = np.random.default_rng(3)
    p0 = rng.standard_normal(2 * n)
    _, grad = objective_and_gradient(spec, p0, data, CTX)
    step = 1e-6
    for i in (0, 1, n // 2, n - 1, n, n + 7, 2 * n - 1):
        e = np.zeros(2 * n)
        e[i] = step
        Jp, _ = objective_and_gradient(spec, p0 + e, data, CTX)
        Jm, _ = objective_and_gradient(spec, p0 - e, data, CTX)
        fd = (Jp - Jm) / (2.0 * step)
        assert abs(fd - grad[i]) <= 1e-5 * max(abs(grad[i]), 1e-12)


def test_self_consistency_recovers_truth():
    # exact data, nearly vanishing regularization: the solve should land on
    # the truth pair; measured 3.3e-4 / 1.3e-3 against the 1e-2 budget
    ctx = make_context(nx=32, nt=32, T=0.0625, delta0=0.0625, delta1=0.03125)
    x = ctx.domain.points
    phi = benchmark_source(x)
    g = np.cos(np.pi * x)
    pair = truth_pair(ctx, phi, g)
    spec = InverseProblemSpec(alpha_f=1e-10, alpha_g=1e-10)
    data = synthesize_data(pair, spec, ctx)
    res = minimize(spec, data, ctx)
    wx = ctx.domain.quad_weights
    assert rel_l2(res.phi_est, phi, wx) <= 1e-2
    assert rel_l2(res.g_est, g, wx) <= 1e-2


def test_minimize_is_deterministic_bitwise():
    phi, g = truth_arrays(CTX)
    pair = truth_pair(CTX, phi, g)
    spec = InverseProblemSpec(alpha_f=1e-3, alpha_g=1e-3, noise_level=1e-2,
                              seed=3)
    data = synthesize_data(pair, spec, CTX)
    a = minimize(spec, data, CTX)
    b = minimize(spec, data, CTX)
    assert np.array_equal(a.phi_est, b.phi_est)
    assert np.array_equal(a.g_est, b.g_est)
    assert a.final_objective == b.final_objective


def test_alpha_ladder_never_grows_g():
    # Tikhonov shrinkage: same data, stronger alpha_g, smaller estimate;
    # measured norms 0.78 -> 0.35 -> 0.006 on this ladder
    phi, g = truth_arrays(CTX)
    pair = truth_pair(CTX, phi, g)
    data = synthesize_data(pair, InverseProblemSpec(noise_level=1e-2, seed=3),
                           CTX)
    wx = CTX.domain.quad_weights
    norms = []
    for alpha_g in (1e-4, 1e-2, 1.0):
        spec = InverseProblemSpec(alpha_f=1e-3, alpha_g=alpha_g)
        res = minimize(spec, data, CTX)
        norms.append(math.sqrt(float(np.sum(wx * res.g_est ** 2))))
    assert norms[0] >= norms[1] >= norms[2]
    assert norms[2] < 0.1 * norms[0]


def test_rate_experiment_exhibits_stability_split():
    # frozen pipeline output at seed 7: slope 0.823, product spread 2.15
    phi, g = truth_arrays(CTX)
    spec = InverseProblemSpec(alpha_f=10.0, alpha_g=1.0, seed=7)
    rr = rate_experiment(spec, [1e-1, 1e-2, 1e-3], (phi, g), CTX)
    assert all(r.converged for r in rr.rows)
    assert 0.6 <= rr.source_slope <= 1.2
    assert abs(rr.source_slope - 0.823) < 0.05
    prods = rr.log_products
    assert max(prods) / min(prods) < 3.0
    errs_f = [r.err_f for r in rr.rows]
    assert errs_f[0] > errs_f[1] > errs_f[2]
    for r in rr.rows:
        assert r.alpha == 10.0 * r.eps ** 2
        assert r.combined_norm_clean > 0.0
        assert r.combined_norm_noisy > 0.0


def test_rate_zero_noise_level_reduces_to_minimize():
    phi, g = truth_arrays(CTX)
    spec = InverseProblemSpec(alpha_f=10.0, alpha_g=1.0, seed=7)
    rr = rate_experiment(spec, [1e-1, 1e-2, 0.0], (phi, g), CTX)
    row = rr.rows[2]
    assert row.eps == 0.0
    assert row.alpha == 0.0
    # replay the level by hand: same seed stream, zero alphas
    level_spec = replace(spec, noise_level=0.0, seed=spec.seed ^ 2,
                         alpha_f=0.0, alpha_g=0.0)
    pair = truth_pair(CTX, phi, g)
    data = synthesize_data(pair, level_spec, CTX)
    res = minimize(level_spec, data, CTX)
    wx = CTX.domain.quad_weights
    assert row.err_f == rel_l2(res.phi_est, phi, wx)
    assert row.err_g == rel_l2(res.g_est, g, wx)
    # products and slope only use the noisy levels
    assert len(rr.log_products) == 2


def test_one_level_recover_replays_synthesize_and_minimize_bitwise():
    phi, g = truth_arrays(CTX)
    spec = InverseProblemSpec(alpha_f=10.0, alpha_g=1.0, seed=7)
    ((level_spec, result, row),) = recover(spec, [1e-2], (phi, g), CTX)
    assert level_spec == replace(spec, noise_level=1e-2,
                                 alpha_f=10.0 * 1e-2 ** 2,
                                 alpha_g=1e-2 ** 2)
    data = synthesize_data(truth_pair(CTX, phi, g), level_spec, CTX)
    res = minimize(level_spec, data, CTX)
    assert np.array_equal(result.phi_est, res.phi_est)
    assert np.array_equal(result.g_est, res.g_est)
    assert result.final_objective == res.final_objective
    wx = CTX.domain.quad_weights
    assert row.err_f == rel_error(res.phi_est, phi, wx)
    assert row.err_g == rel_error(res.g_est, g, wx)
    assert row.combined_norm_noisy == data.combined_norm


@pytest.mark.parametrize("noise, message", [
    ([0.1, -1.0], "noise level must be nonnegative"),
    ([1e308], "square overflows"),
    ([0.1, math.inf], "^noise level inf is not finite$"),
    ([math.nan], "^noise level nan is not finite$"),
    ([], "^need at least one noise level$"),
])
def test_recover_checks_every_level_before_the_gate(noise, message):
    # the truth overflows the gate, so only an earlier check can answer
    phi, g = truth_arrays(CTX)
    with pytest.raises(ValueError, match=message):
        recover(InverseProblemSpec(), noise, (1e160 * phi, g), CTX)
    with pytest.raises(ValueError, match="overflows: its L2"):
        recover(InverseProblemSpec(), [0.1], (1e160 * phi, g), CTX)


def test_recover_refuses_a_base_spec_with_noise():
    # it would be replaced by the listed levels without a word
    phi, g = truth_arrays(CTX)
    with pytest.raises(ValueError, match="^the base spec has noise level "
                       "0.5: recover takes its noise levels from "
                       "noise_list$"):
        recover(InverseProblemSpec(noise_level=0.5), [0.1], (phi, g), CTX)


def test_rate_experiment_validates_noise_list():
    phi, g = truth_arrays(CTX)
    spec = InverseProblemSpec()
    with pytest.raises(ValueError, match="3"):
        rate_experiment(spec, [1e-1, 1e-2], (phi, g), CTX)
    with pytest.raises(ValueError, match="decreasing"):
        rate_experiment(spec, [1e-2, 1e-1, 1e-3], (phi, g), CTX)
    # the sign is the spec's to refuse, in the wording of one level
    with pytest.raises(ValueError, match="^noise level must be nonnegative$"):
        rate_experiment(spec, [1e-1, 1e-2, -1.0], (phi, g), CTX)


def test_an_undefined_source_slope_is_none():
    # weights this large leave every level unconverged, so no level is
    # fitted
    ctx = make_context(nx=8, nt=8)
    spec = InverseProblemSpec(alpha_f=1e308, alpha_g=1e308)
    result = rate_experiment(spec, [1.0, 0.5, 0.25], truth_arrays(ctx), ctx)
    assert not any(row.converged for row in result.rows)
    assert result.source_slope is None


def test_rate_experiment_deterministic():
    phi, g = truth_arrays(CTX)
    spec = InverseProblemSpec(alpha_f=10.0, alpha_g=1.0, seed=7)
    a = rate_experiment(spec, [1e-1, 1e-2, 1e-3], (phi, g), CTX)
    b = rate_experiment(spec, [1e-1, 1e-2, 1e-3], (phi, g), CTX)
    assert a.rows == b.rows
    assert a.source_slope == b.source_slope


def readme_level(ctx, level, eps):
    """Spec and data of one level of the README rate run (seed 7)."""
    phi, g = truth_arrays(ctx)
    spec = InverseProblemSpec(alpha_f=10.0 * eps ** 2, alpha_g=eps ** 2,
                              noise_level=eps, seed=7 ^ level)
    return spec, synthesize_data(truth_pair(ctx, phi, g), spec, ctx)


def zero_gradient_norm(data, ctx):
    """||grad J(0)|| = ||G^T b||, the scale of the relative certificate."""
    return float(np.linalg.norm(observation_matrix(ctx).T
                                @ observed_vector(data, ctx)))


def hessian_oracle(spec, data, ctx):
    """Minimizer of the exact quadratic objective from the PDE gradient
    alone: the gradient is affine, so column j of the Hessian is
    grad(e_j) - grad(0). Returns (x, J, gradient) at the minimizer."""
    dim = 2 * (ctx.domain.nx + 1)
    grad0 = objective_and_gradient(spec, np.zeros(dim), data, ctx)[1]
    hess = np.column_stack([objective_and_gradient(spec, e, data, ctx)[1]
                            - grad0 for e in np.eye(dim)])
    x = np.linalg.solve(0.5 * (hess + hess.T), -grad0)
    return (x,) + objective_and_gradient(spec, x, data, ctx)


@pytest.mark.parametrize("level,eps,tol_err,tol_params",
                         [(0, 1e-1, 1e-10, 5e-9), (2, 1e-3, 3e-4, 5e-4)])
def test_direct_solve_matches_the_hessian_oracle_on_the_readme_problem(
        level, eps, tol_err, tol_params):
    # the oracle never touches observation_matrix or gelsd; measured gaps:
    # parameters 4.6e-14 and err_f 8.6e-16 at eps=0.1 (cond(H) 3.1e2),
    # parameters 5.0e-10 and err_f 6.3e-10 at eps=1e-3 (cond(H) 3.0e6)
    spec, data = readme_level(CTX, level, eps)
    n = CTX.domain.nx + 1
    direct = minimize(spec, data, CTX)
    x, J, grad = hessian_oracle(spec, data, CTX)
    assert direct.converged
    assert (np.linalg.norm(grad)
            <= inverse.RTOL * zero_gradient_norm(data, CTX))
    x_direct = np.concatenate([direct.phi_est, direct.g_est])
    assert (np.linalg.norm(x - x_direct)
            <= tol_params * np.linalg.norm(x_direct))
    phi, _ = truth_arrays(CTX)
    wx = CTX.domain.quad_weights
    err_direct = rel_error(direct.phi_est, phi, wx)
    err_oracle = rel_error(x[:n], phi, wx)
    assert abs(err_oracle - err_direct) <= tol_err * err_direct
    assert direct.final_objective <= J * (1.0 + 1e-12)


def test_converged_is_the_gradient_check():
    spec, data = readme_level(CTX, 1, 1e-2)
    res = minimize(spec, data, CTX)
    assert res.converged == (
        res.grad_norm <= inverse.RTOL * zero_gradient_norm(data, CTX))
    assert res.converged
    # the reported norm is the PDE gradient at the returned solution
    _, grad = objective_and_gradient(
        spec, np.concatenate([res.phi_est, res.g_est]), data, CTX)
    assert res.grad_norm == float(np.linalg.norm(grad))


def test_rate_rows_report_the_final_gradient_norm():
    phi, g = truth_arrays(CTX)
    spec = InverseProblemSpec(alpha_f=10.0, alpha_g=1.0, seed=7)
    rr = rate_experiment(spec, [1e-1, 1e-2, 1e-3], (phi, g), CTX)
    for level, row in enumerate(rr.rows):
        _, data = readme_level(CTX, level, row.eps)
        assert row.converged
        assert row.grad_norm <= inverse.RTOL * zero_gradient_norm(data, CTX)


def test_a_wrong_observation_matrix_fails_the_certificate(monkeypatch):
    # a sign-flipped observation matrix solves the wrong least-squares
    # problem; the PDE gradient at its solution catches it
    spec, data = readme_level(CTX, 1, 1e-2)
    flipped = -observation_matrix(CTX)
    monkeypatch.setattr(inverse, "observation_matrix", lambda ctx: flipped)
    res = minimize(spec, data, CTX)
    assert not res.converged
    assert res.grad_norm > inverse.RTOL * zero_gradient_norm(data, CTX)


def test_minimize_is_one_solve_and_one_certificate(monkeypatch):
    calls = {"lstsq": 0, "objective": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(lapack, "lstsq", counted("lstsq", lapack.lstsq))
    monkeypatch.setattr(inverse, "objective_and_gradient",
                        counted("objective", inverse.objective_and_gradient))
    spec, data = readme_level(CTX, 1, 1e-2)
    res = minimize(spec, data, CTX)
    assert calls == {"lstsq": 1, "objective": 1}
    assert res.converged


def test_non_finite_objective_at_the_solution_is_refused():
    # a snapshot of 1e200 is solved and marched in range, but its
    # squares overflow the objective to inf
    spec = InverseProblemSpec(alpha_f=1.0, alpha_g=1.0)
    n = CTX.domain.nx + 1
    clean = synthesize_data(truth_pair(CTX, *truth_arrays(CTX)), spec, CTX)
    huge = MeasurementData(np.full(n, 1e200), clean.lateral_trace,
                           math.inf, clean.h2_trace_norm, math.inf)
    with np.errstate(over="ignore"), \
            pytest.raises(RuntimeError, match="non-finite objective"):
        minimize(spec, huge, CTX)
