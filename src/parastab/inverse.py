"""Regularized least-squares recovery of the source and initial value from
the final snapshot and lateral trace.

The misfit is measured in L2 (snapshot in L2(Omega), trace in the window
trace product), not in the H2 norms of the stability theory: differencing
noisy data twice would amplify the noise and complicate the adjoint. The
H2 combined norm stays available through measure() as the stability-side
diagnostic. Quadratic Tikhonov terms on the unknowns close the gap left
by the non-constructive stability constants.

Gradients are exact for the discrete objective: one backward multiplier
solve with the snapshot residual as terminal payload and the trace
residual as boundary payload, then chain rule through the trapezoid
weights (discretize-then-optimize).

The source is separable, f(x,t) = phi(x) sigma(t) with sigma known, so the
data depend linearly on the 2(nx+1) unknowns (phi, g) and the objective is
an exact quadratic. minimize solves it by Newton's method: each step is
the SVD least-squares solution against the observation matrix (one batched
forward march of the basis pairs) stacked on the Tikhonov rows, and the
PDE gradient decides convergence. The normal
equations are avoided because they square the condition number: 1.7e3
becomes 3e6 at eps = 1e-3 in the README rate run, and at alpha = 0 they
lose definiteness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .admissible import make_admissible_pair
from .lab import LabContext
from .measurement import MeasurementData, measure, measurement_data, \
    observed_march
from .mesh import SpaceTimeField
from .solver import adjoint_gradients, adjoint_solve, forward_solve
from .stencils import fd_first


@dataclass(frozen=True)
class InverseProblemSpec:
    """Tuning knobs of the separable recovery.

    The source is f(x,t) = phi(x) sigma(t) with sigma known (default 1) and
    the unknowns are (phi, g); any candidate is rate-admissible by
    construction once sigma is. alpha_f/alpha_g double as the base weights
    alpha0 that rate_experiment scales by eps^2.
    """
    alpha_f: float = 1.0
    alpha_g: float = 1.0
    max_iters: int = 200
    grad_tol: float = 1e-8
    noise_level: float = 0.0
    seed: int = 0
    sigma: object = None   # callable t -> sigma(t); None means sigma = 1

    def __post_init__(self):
        if self.alpha_f < 0.0 or self.alpha_g < 0.0:
            raise ValueError("regularization weights must be nonnegative")
        if self.noise_level < 0.0:
            raise ValueError("noise level must be nonnegative")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.grad_tol <= 0.0:
            raise ValueError("grad_tol must be positive")


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    phi_est: np.ndarray
    g_est: np.ndarray
    misfit_history: tuple
    final_objective: float
    converged: bool
    iterations: int
    grad_norm: float       # Euclidean norm of the final gradient


def _sigma_values(spec: InverseProblemSpec, ctx: LabContext) -> np.ndarray:
    times = ctx.window.times
    if spec.sigma is None:
        return np.ones(times.size)
    vals = np.asarray(spec.sigma(times), dtype=float) + np.zeros(times.size)
    sT = vals[ctx.window.snapshot_index]
    if sT == 0.0:
        raise ValueError("sigma(T) must be nonzero")
    rate = np.max(np.abs(fd_first(vals, ctx.window.k)))
    if rate > ctx.C0 * abs(sT) * (1.0 + 1e-12):
        raise ValueError(f"sigma violates the rate budget: |sigma'| reaches "
                         f"{rate!r} against C0|sigma(T)| = {ctx.C0 * abs(sT)!r}")
    return vals


def pack_params(phi, g) -> np.ndarray:
    """Flatten (phi, g) into the optimization vector."""
    return np.concatenate([np.asarray(phi, dtype=float),
                           np.asarray(g, dtype=float)])


def unpack_params(params: np.ndarray, ctx: LabContext):
    """Inverse of pack_params; returns (phi, g)."""
    params = np.asarray(params, dtype=float)
    n_space = ctx.domain.nx + 1
    if params.shape != (2 * n_space,):
        raise ValueError(f"parameter vector has shape {params.shape}, "
                         f"expected {(2 * n_space,)}")
    return params[:n_space].copy(), params[n_space:].copy()


def _source_field(phi, sigma_vals, ctx) -> SpaceTimeField:
    return SpaceTimeField(phi[:, None] * sigma_vals[None, :], ctx.domain,
                          ctx.window)


def objective_and_gradient(spec: InverseProblemSpec, params: np.ndarray,
                           data: MeasurementData, ctx: LabContext):
    """Value and exact Euclidean gradient of the Tikhonov objective.

    J = 0.5||u(.,T) - d_T||^2_{L2(Omega)} + 0.5||u|_Gamma - d_Gamma||^2
        + 0.5 alpha_f ||phi||^2 + 0.5 alpha_g ||g||^2

    The data gradient is one adjoint solve; entries are partial derivatives
    with respect to the raw parameter vector (trapezoid weights included),
    so central differences of J reproduce them directly.
    """
    phi, g = unpack_params(params, ctx)
    sigma_vals = _sigma_values(spec, ctx)
    f = _source_field(phi, sigma_vals, ctx)
    u = forward_solve(ctx.dop, f, g, ctx.window)

    window, domain = ctx.window, ctx.domain
    wx = domain.quad_weights
    ww = window.window_weights
    r_T = u.values[:, window.snapshot_index] - data.final_snapshot
    r_G = u.values[np.array(domain.gamma_indices), window.window_slice] \
        - data.lateral_trace

    J = 0.5 * float(np.sum(wx * r_T ** 2))
    J += 0.5 * float(np.sum(ww[None, :] * r_G ** 2))
    J += 0.5 * spec.alpha_f * float(np.sum(wx * phi ** 2))
    J += 0.5 * spec.alpha_g * float(np.sum(wx * g ** 2))

    p = adjoint_solve(ctx.dop, r_T, None, r_G, window)
    phi_adj, g_riesz = adjoint_gradients(p)
    wt = window.quad_weights
    grad_phi = wx * (phi_adj.values @ (wt * sigma_vals) + spec.alpha_f * phi)
    grad_g = wx * (g_riesz + spec.alpha_g * g)
    return J, np.concatenate([grad_phi, grad_g])


def observation_matrix(spec: InverseProblemSpec,
                       ctx: LabContext) -> np.ndarray:
    """Weighted observations of the separable basis pairs, one per column.

    Column j < nx+1 observes the source e_j sigma(t) with g = 0, column
    nx+1+j the initial value e_j with f = 0. The rows are the snapshot
    weighted by sqrt(wx), then the trace of each observed endpoint over
    the window weighted by sqrt(ww), so ||G x - observed_vector(data)||^2
    is twice the data misfit of objective_and_gradient. All columns share
    one march, which stops at the last trace level, and each equals
    forward_solve of its pair bit for bit.
    """
    sigma_vals = _sigma_values(spec, ctx)
    domain, window = ctx.domain, ctx.window
    n = domain.nx + 1
    eye, zero = np.eye(n), np.zeros((n, n))
    unit_source = np.hstack([eye, zero])

    def source_sum(level):
        return (unit_source * sigma_vals[level]
                + unit_source * sigma_vals[level + 1])

    state = np.hstack([zero, eye])
    snapshots, traces = observed_march(ctx.dop, window, state, source_sum)
    ww = window.window_weights
    return np.vstack([np.sqrt(domain.quad_weights)[:, None] * snapshots.T,
                      (np.sqrt(ww)[None, :, None]
                       * traces.transpose(1, 2, 0)).reshape(-1, 2 * n)])


def observed_vector(data: MeasurementData, ctx: LabContext) -> np.ndarray:
    """The data in the row order and weighting of observation_matrix."""
    ww = ctx.window.window_weights
    return np.concatenate([np.sqrt(ctx.domain.quad_weights)
                           * data.final_snapshot,
                           (np.sqrt(ww)[None, :] * data.lateral_trace).ravel()])


def _evaluate(spec, x, data, ctx, iteration):
    J, grad = objective_and_gradient(spec, x, data, ctx)
    if not math.isfinite(J):
        if iteration == 0:
            raise RuntimeError(f"non-finite objective at the initial guess: "
                               f"J={J!r}")
        raise RuntimeError(f"non-finite objective at iteration {iteration} "
                           f"(max |param| = {float(np.max(np.abs(x)))!r})")
    return J, grad


def _newton(spec, data, x, ctx, obs):
    """Newton's method on the exact quadratic objective.

    Each step is the SVD least-squares solution of ||A dx + r||, where A
    stacks the observation matrix on diag(sqrt(alpha wx)) and r is the
    residual at x. The objective and gradient come from the PDE forward
    and adjoint solves; a step is kept only if it does not raise J.
    Returns (x, objective history, J, gradient).
    """
    wx = ctx.domain.quad_weights
    tikhonov = np.sqrt(np.concatenate([spec.alpha_f * wx, spec.alpha_g * wx]))
    design = np.vstack([obs, np.diag(tikhonov)])
    target = np.concatenate([observed_vector(data, ctx), np.zeros(x.size)])
    J, grad = _evaluate(spec, x, data, ctx, 0)
    history = [J]
    while (not float(np.linalg.norm(grad)) <= spec.grad_tol
           and len(history) <= spec.max_iters):
        step = scipy.linalg.lstsq(design, target - design @ x,
                                  lapack_driver="gelsd")[0]
        trial = x + step
        J_t, grad_t = _evaluate(spec, trial, data, ctx, len(history))
        if J_t > J:
            break
        x, J, grad = trial, J_t, grad_t
        history.append(J)
    return x, history, J, grad


def minimize(spec: InverseProblemSpec, data: MeasurementData, init,
             ctx: LabContext, *, _obs=None) -> ReconstructionResult:
    """Minimize the Tikhonov objective from init.

    init is (phi0, g0). Newton steps on the exact quadratic (_obs is the
    observation matrix when the caller already has it) stop when the
    Euclidean gradient norm falls to grad_tol, after max_iters steps, or
    when a step would raise the objective; converged reports the first.
    Deterministic: no randomness anywhere.
    """
    phi0, g0 = init
    x = pack_params(phi0, g0)
    if not np.all(np.isfinite(x)):
        raise ValueError("initial guess contains non-finite values")
    obs = observation_matrix(spec, ctx) if _obs is None else _obs
    x, history, J, grad = _newton(spec, data, x, ctx, obs)
    grad_norm = float(np.linalg.norm(grad))

    phi, g = unpack_params(x, ctx)
    return ReconstructionResult(phi, g, tuple(history), J,
                                grad_norm <= spec.grad_tol, len(history) - 1,
                                grad_norm)


def synthesize_data(pair, spec: InverseProblemSpec,
                    ctx: LabContext) -> MeasurementData:
    """Measure the forward solution of the pair and add seeded noise.

    The Gaussian perturbations of snapshot and trace are rescaled so each
    part is moved by exactly noise_level in its relative L2 norm. Zero
    noise returns the clean measurement bit-exactly; the stored norms are
    always the H2 readings of whatever arrays the data holds.
    """
    u = forward_solve(ctx.dop, pair.f, pair.g, ctx.window)
    md = measure(u, ctx.domain, ctx.window)
    eps = spec.noise_level
    if eps == 0.0:
        return md

    rng = np.random.default_rng(spec.seed)
    snap = _perturb(rng, md.final_snapshot, ctx.domain.quad_weights, eps)
    trace = _perturb(rng, md.lateral_trace,
                     ctx.window.window_weights[None, :], eps)
    return measurement_data(snap, trace, ctx.domain, ctx.window)


def _perturb(rng, clean: np.ndarray, weights, eps: float) -> np.ndarray:
    """A copy of clean moved by exactly eps in its relative weighted L2
    norm along the next Gaussian draw of rng."""
    eta = rng.standard_normal(clean.shape)
    eta_norm = math.sqrt(float(np.sum(weights * eta ** 2)))
    d_norm = math.sqrt(float(np.sum(weights * clean ** 2)))
    if eta_norm > 0.0 and d_norm > 0.0:
        return clean + (eps * d_norm / eta_norm) * eta
    return clean.copy()


@dataclass(frozen=True)
class RateRow:
    eps: float
    alpha: float
    err_f: float
    err_g: float
    combined_norm_clean: float
    combined_norm_noisy: float
    iters: int
    converged: bool
    grad_norm: float


@dataclass(frozen=True)
class RateResult:
    rows: tuple
    source_slope: float
    log_products: tuple


def rel_error(est: np.ndarray, truth: np.ndarray, weights: np.ndarray) -> float:
    """Weighted relative L2 error; the absolute error when truth is zero."""
    diff = math.sqrt(float(np.sum(weights * (est - truth) ** 2)))
    base = math.sqrt(float(np.sum(weights * truth ** 2)))
    return diff / base if base > 0.0 else diff


def alpha_scale(eps: float) -> float:
    """The factor eps^2 that noise level eps puts on the base weights
    alpha0; a level whose square overflows is refused."""
    try:
        return eps ** 2
    except OverflowError:
        raise ValueError(f"noise level {eps!r} is too large: its square "
                         f"overflows") from None


def rate_experiment(spec: InverseProblemSpec, noise_list, truth,
                    ctx: LabContext) -> RateResult:
    """Noise sweep: reconstruct at each level and fit the error rates.

    truth is (phi_true, g_true). Per level: seed = spec.seed XOR level
    index, alpha = (alpha_f, alpha_g) * eps^2, data synthesized fresh,
    optimization from zero; every level reuses one observation matrix.
    Non-converged levels keep their row but are excluded from the slope
    fit. The Lipschitz proxy is the log-log slope of err_f; the
    logarithmic proxy is the sequence err_g * |ln eps|.
    """
    noise_list = [float(e) for e in noise_list]
    if len(noise_list) < 3:
        raise ValueError("need at least 3 noise levels")
    if any(b >= a for a, b in zip(noise_list, noise_list[1:])):
        raise ValueError("noise levels must be strictly decreasing")
    if any(e < 0.0 for e in noise_list):
        raise ValueError("noise levels must be nonnegative")
    scales = [alpha_scale(e) for e in noise_list]

    phi_truth, g_truth = truth
    phi_truth = np.asarray(phi_truth, dtype=float)
    g_truth = np.asarray(g_truth, dtype=float)
    f_truth = _source_field(phi_truth, _sigma_values(spec, ctx), ctx)
    pair = make_admissible_pair(ctx, f=f_truth, g=g_truth)

    wx = ctx.domain.quad_weights
    n_space = ctx.domain.nx + 1
    u = forward_solve(ctx.dop, pair.f, pair.g, ctx.window)
    clean_combined = measure(u, ctx.domain, ctx.window).combined_norm
    obs = observation_matrix(spec, ctx)
    rows = []
    for level, (eps, scale) in enumerate(zip(noise_list, scales)):
        level_spec = replace(spec, noise_level=eps, seed=spec.seed ^ level,
                             alpha_f=spec.alpha_f * scale,
                             alpha_g=spec.alpha_g * scale)
        data = synthesize_data(pair, level_spec, ctx)
        init = (np.zeros(n_space), np.zeros(n_space))
        res = minimize(level_spec, data, init, ctx, _obs=obs)
        err_f = rel_error(res.phi_est, phi_truth, wx)
        err_g = rel_error(res.g_est, g_truth, wx)
        rows.append(RateRow(eps, level_spec.alpha_f, err_f, err_g,
                            clean_combined, data.combined_norm,
                            res.iterations, res.converged, res.grad_norm))

    fit = [(r.eps, r.err_f) for r in rows
           if r.converged and r.eps > 0.0 and r.err_f > 0.0]
    slope = math.nan
    if len(fit) >= 2:
        lx = np.log([e for e, _ in fit])
        ly = np.log([v for _, v in fit])
        slope = float(np.polyfit(lx, ly, 1)[0])
    products = tuple(r.err_g * abs(math.log(r.eps)) for r in rows if r.eps > 0.0)
    return RateResult(tuple(rows), slope, products)
