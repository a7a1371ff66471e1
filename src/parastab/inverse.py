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

In the separable mode the data depend linearly on the 2(nx+1) unknowns
(phi, g), so the objective is an exact quadratic. minimize solves it by
Newton's method: each step is the SVD least-squares solution against the
observation matrix (one batched forward march of the basis pairs) stacked
on the Tikhonov rows, and the PDE gradient decides convergence. The normal
equations are avoided because they square the condition number: 1.7e3
becomes 3e6 at eps = 1e-3 in the README rate run, and at alpha = 0 they
lose definiteness. The full mode, whose unknown is the whole source grid,
keeps the projected L-BFGS.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .admissible import make_admissible_pair
from .lab import LabContext
from .measurement import MeasurementData, measure, measurement_data
from .mesh import SpaceTimeField
from .solver import adjoint_gradients, adjoint_solve, cn_march, \
    forward_solve
from .stencils import fd_first

SEPARABLE = "separable"
FULL = "full"
MODES = (SEPARABLE, FULL)

_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 40
# A deep curvature memory keeps the two-loop recursion close to full BFGS
# on the quadratic objective. Each pair holds two full-mode parameter
# vectors of (nx+1)(nt+2) values, so 120 pairs cost about 240 forward
# solutions of storage: 8 MB at nx=32, nt=128.
_LBFGS_MEMORY = 120


@dataclass(frozen=True)
class InverseProblemSpec:
    """Recovery mode and tuning knobs.

    separable: f(x,t) = phi(x) sigma(t) with sigma known (default 1), the
    unknowns are (phi, g); any candidate is rate-admissible by construction
    once sigma is. full: the unknown is the whole source grid plus g, and
    the rate condition is enforced by projection after each step.
    alpha_f/alpha_g double as the base weights alpha0 that rate_experiment
    scales by eps^2.
    """
    mode: str = SEPARABLE
    alpha_f: float = 1.0
    alpha_g: float = 1.0
    max_iters: int = 200
    grad_tol: float = 1e-8
    noise_level: float = 0.0
    seed: int = 0
    sigma: object = None   # callable t -> sigma(t); None means sigma = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
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
    phi_est: np.ndarray | None
    f_est: np.ndarray | None
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
        raise ValueError("sigma(T) must be nonzero in separable mode")
    rate = np.max(np.abs(fd_first(vals, ctx.window.k)))
    if rate > ctx.C0 * abs(sT) * (1.0 + 1e-12):
        raise ValueError(f"sigma violates the rate budget: |sigma'| reaches "
                         f"{rate!r} against C0|sigma(T)| = {ctx.C0 * abs(sT)!r}")
    return vals


def _param_dim(spec: InverseProblemSpec, ctx: LabContext) -> int:
    n_space = ctx.domain.nx + 1
    if spec.mode == SEPARABLE:
        return 2 * n_space
    return n_space * (ctx.window.nt + 1) + n_space


def pack_params(source, g) -> np.ndarray:
    """Flatten (phi, g) or (f grid, g) into the optimization vector."""
    g = np.asarray(g, dtype=float)
    src = np.asarray(source, dtype=float)
    return np.concatenate([src.ravel(), g])


def unpack_params(spec: InverseProblemSpec, params: np.ndarray,
                  ctx: LabContext):
    """Inverse of pack_params; returns (phi or f grid, g)."""
    params = np.asarray(params, dtype=float)
    if params.shape != (_param_dim(spec, ctx),):
        raise ValueError(f"parameter vector has shape {params.shape}, "
                         f"expected {(_param_dim(spec, ctx),)}")
    n_space = ctx.domain.nx + 1
    g = params[-n_space:]
    if spec.mode == SEPARABLE:
        return params[:n_space].copy(), g.copy()
    shape = (n_space, ctx.window.nt + 1)
    return params[:-n_space].reshape(shape).copy(), g.copy()


def _source_field(spec, source, sigma_vals, ctx) -> SpaceTimeField:
    if spec.mode == SEPARABLE:
        vals = source[:, None] * sigma_vals[None, :]
    else:
        vals = source
    return SpaceTimeField(np.asarray(vals, dtype=float), ctx.domain, ctx.window)


def objective_and_gradient(spec: InverseProblemSpec, params: np.ndarray,
                           data: MeasurementData, ctx: LabContext):
    """Value and exact Euclidean gradient of the Tikhonov objective.

    J = 0.5||u(.,T) - d_T||^2_{L2(Omega)} + 0.5||u|_Gamma - d_Gamma||^2
        + 0.5 alpha_f ||phi or f||^2 + 0.5 alpha_g ||g||^2

    The data gradient is one adjoint solve; entries are partial derivatives
    with respect to the raw parameter vector (trapezoid weights included),
    so central differences of J reproduce them directly.
    """
    source, g = unpack_params(spec, params, ctx)
    sigma_vals = _sigma_values(spec, ctx)
    f = _source_field(spec, source, sigma_vals, ctx)
    u = forward_solve(ctx.dop, f, g, ctx.window)

    window, domain = ctx.window, ctx.domain
    wx = domain.quad_weights
    ww = window.window_weights
    r_T = u.values[:, window.snapshot_index] - data.final_snapshot
    r_G = u.values[np.array(domain.gamma_indices), window.window_slice] \
        - data.lateral_trace

    J = 0.5 * float(np.sum(wx * r_T ** 2))
    J += 0.5 * float(np.sum(ww[None, :] * r_G ** 2))
    if spec.mode == SEPARABLE:
        J += 0.5 * spec.alpha_f * float(np.sum(wx * source ** 2))
    else:
        wt = window.quad_weights
        J += 0.5 * spec.alpha_f * float(np.sum(wx[:, None] * wt[None, :]
                                               * source ** 2))
    J += 0.5 * spec.alpha_g * float(np.sum(wx * g ** 2))

    p = adjoint_solve(ctx.dop, r_T, None, r_G, window)
    phi_adj, g_riesz = adjoint_gradients(p)
    if spec.mode == SEPARABLE:
        wt = window.quad_weights
        src_riesz = phi_adj.values @ (wt * sigma_vals) + spec.alpha_f * source
        grad_src = wx * src_riesz
    else:
        wt = window.quad_weights
        grad_src = (wx[:, None] * wt[None, :]
                    * (phi_adj.values + spec.alpha_f * source))
    grad_g = wx * (g_riesz + spec.alpha_g * g)
    return J, np.concatenate([grad_src.ravel(), grad_g])


def project_rate_budget(fv: np.ndarray, window, C0: float) -> np.ndarray:
    """Clip per-step time increments of f onto |df| <= C0 k |f(.,T)|.

    The snapshot column is the anchor and never moves. Feasible inputs are
    returned unchanged (bit-exact identity), which makes the projection
    idempotent. Clipping per-step increments bounds the centered discrete
    rate by C0|f(.,T)| exactly; the one-sided end stencils can overshoot
    by at most a factor 2, which the budget checks tolerate.
    """
    fv = np.asarray(fv, dtype=float)
    i_T = window.snapshot_index
    cap = C0 * window.k * np.abs(fv[:, i_T])
    d = np.diff(fv, axis=1)
    clipped = np.clip(d, -cap[:, None], cap[:, None])
    if np.array_equal(d, clipped):
        return fv.copy()
    out = np.empty_like(fv)
    out[:, i_T] = fv[:, i_T]
    for n in range(i_T, fv.shape[1] - 1):
        out[:, n + 1] = out[:, n] + clipped[:, n]
    for n in range(i_T - 1, -1, -1):
        out[:, n] = out[:, n + 1] - clipped[:, n]
    return out


def _project_params(spec, params, ctx):
    if spec.mode != FULL:
        return params
    source, g = unpack_params(spec, params, ctx)
    projected = project_rate_budget(source, ctx.window, ctx.C0)
    return np.concatenate([projected.ravel(), g])


def _two_loop(grad, mem_s, mem_y):
    q = grad.copy()
    alphas = []
    for s, y in zip(reversed(mem_s), reversed(mem_y)):
        rho = 1.0 / float(np.dot(y, s))
        a = rho * float(np.dot(s, q))
        alphas.append(a)
        q -= a * y
    if mem_s:
        s, y = mem_s[-1], mem_y[-1]
        q *= float(np.dot(s, y)) / float(np.dot(y, y))
    for (s, y), a in zip(zip(mem_s, mem_y), reversed(alphas)):
        rho = 1.0 / float(np.dot(y, s))
        b = rho * float(np.dot(y, q))
        q += (a - b) * s
    return q


def observation_matrix(spec: InverseProblemSpec,
                       ctx: LabContext) -> np.ndarray:
    """Weighted observations of the separable basis pairs, one per column.

    Column j < nx+1 observes the source e_j sigma(t) with g = 0, column
    nx+1+j the initial value e_j with f = 0. The rows are the snapshot
    weighted by sqrt(wx), then the trace of each observed endpoint over
    the window weighted by sqrt(ww), so ||G x - observed_vector(data)||^2
    is twice the data misfit of objective_and_gradient. All columns share
    one march, and each equals forward_solve of its pair bit for bit.
    """
    if spec.mode != SEPARABLE:
        raise ValueError("the observation matrix needs the separable mode")
    sigma_vals = _sigma_values(spec, ctx)
    domain, window = ctx.domain, ctx.window
    n = domain.nx + 1
    eye, zero = np.eye(n), np.zeros((n, n))
    unit_source = np.hstack([eye, zero])
    i_T, sl = window.snapshot_index, window.window_slice
    gamma = np.array(domain.gamma_indices)
    snapshot = np.empty((n, 2 * n))
    trace = np.empty((gamma.size, window.window_weights.size, 2 * n))

    def record(level, state):
        if level == i_T:
            snapshot[:] = state
        if sl.start <= level < sl.stop:
            trace[:, level - sl.start] = state[gamma]

    def source_sum(level):
        return (unit_source * sigma_vals[level]
                + unit_source * sigma_vals[level + 1])

    state = np.hstack([zero, eye])
    record(0, state)
    cn_march(ctx.dop, window, state, record, source_sum)
    ww = window.window_weights
    return np.vstack([np.sqrt(domain.quad_weights)[:, None] * snapshot,
                      (np.sqrt(ww)[None, :, None] * trace).reshape(-1, 2 * n)])


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
    """Newton's method on the exact quadratic of the separable mode.

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


def _lbfgs(spec, data, x, ctx):
    """Limited-memory quasi-Newton descent with backtracking line search.

    Iterates are projected onto the feasible set before evaluation (a no-op
    in the separable mode), so the recorded objective history is feasible
    and non-increasing. Returns (x, objective history, J, gradient).
    """
    x = _project_params(spec, x, ctx)
    J, grad = _evaluate(spec, x, data, ctx, 0)
    history = [J]
    mem_s, mem_y = [], []
    while (not float(np.linalg.norm(grad)) <= spec.grad_tol
           and len(history) <= spec.max_iters):
        d = -_two_loop(grad, mem_s, mem_y)
        slope = float(np.dot(grad, d))
        if slope >= 0.0:
            # memory turned stale; fall back to steepest descent
            mem_s, mem_y = [], []
            d = -grad
            slope = -float(np.dot(grad, grad))
        step = 1.0 if mem_s else 1.0 / max(1.0, float(np.linalg.norm(grad)))

        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            trial = _project_params(spec, x + step * d, ctx)
            dx = trial - x
            gain = float(np.dot(grad, dx))
            J_t, grad_t = _evaluate(spec, trial, data, ctx, len(history))
            if gain < 0.0 and J_t <= J + _ARMIJO_C1 * gain:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break

        s_vec, y_vec = trial - x, grad_t - grad
        sy = float(np.dot(s_vec, y_vec))
        if sy > 1e-12 * float(np.linalg.norm(s_vec)) * float(np.linalg.norm(y_vec)):
            mem_s.append(s_vec)
            mem_y.append(y_vec)
            if len(mem_s) > _LBFGS_MEMORY:
                mem_s.pop(0)
                mem_y.pop(0)
        x, J, grad = trial, J_t, grad_t
        history.append(J)
    return x, history, J, grad


def minimize(spec: InverseProblemSpec, data: MeasurementData, init,
             ctx: LabContext, *, _obs=None) -> ReconstructionResult:
    """Minimize the Tikhonov objective from init.

    init is (phi0, g0) in separable mode or (f0 grid, g0) in full mode.
    Separable mode takes Newton steps on its exact quadratic (_obs is its
    observation matrix when the caller already has it); full mode runs the
    projected L-BFGS. Both stop when the Euclidean gradient norm falls to
    grad_tol, after max_iters steps, or when they find no acceptable step;
    converged reports the first. Deterministic: no randomness anywhere.
    """
    source0, g0 = init
    x = pack_params(source0, g0)
    if not np.all(np.isfinite(x)):
        raise ValueError("initial guess contains non-finite values")
    if spec.mode == SEPARABLE:
        obs = observation_matrix(spec, ctx) if _obs is None else _obs
        x, history, J, grad = _newton(spec, data, x, ctx, obs)
    else:
        x, history, J, grad = _lbfgs(spec, data, x, ctx)
    grad_norm = float(np.linalg.norm(grad))

    source, g = unpack_params(spec, x, ctx)
    phi_est = source if spec.mode == SEPARABLE else None
    f_est = source if spec.mode == FULL else None
    return ReconstructionResult(phi_est, f_est, g, tuple(history), J,
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


def rate_experiment(spec: InverseProblemSpec, noise_list, truth,
                    ctx: LabContext) -> RateResult:
    """Noise sweep: reconstruct at each level and fit the error rates.

    truth is (phi_true, g_true) in separable mode or (f grid, g_true) in
    full mode. Per level: seed = spec.seed XOR level index, alpha =
    (alpha_f, alpha_g) * eps^2, data synthesized fresh, optimization from
    zero; in separable mode every level reuses one observation matrix.
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

    source_truth, g_truth = truth
    source_truth = np.asarray(source_truth, dtype=float)
    g_truth = np.asarray(g_truth, dtype=float)
    sigma_vals = _sigma_values(spec, ctx)
    f_truth = _source_field(spec, source_truth, sigma_vals, ctx)
    pair = make_admissible_pair(ctx, f=f_truth, g=g_truth)

    wx = ctx.domain.quad_weights
    if spec.mode == SEPARABLE:
        src_weights = wx
    else:
        src_weights = wx[:, None] * ctx.window.quad_weights[None, :]

    n_space = ctx.domain.nx + 1
    u = forward_solve(ctx.dop, pair.f, pair.g, ctx.window)
    clean_combined = measure(u, ctx.domain, ctx.window).combined_norm
    obs = observation_matrix(spec, ctx) if spec.mode == SEPARABLE else None
    rows = []
    for level, eps in enumerate(noise_list):
        level_spec = replace(spec, noise_level=eps, seed=spec.seed ^ level,
                             alpha_f=spec.alpha_f * eps ** 2,
                             alpha_g=spec.alpha_g * eps ** 2)
        data = synthesize_data(pair, level_spec, ctx)
        if spec.mode == SEPARABLE:
            init = (np.zeros(n_space), np.zeros(n_space))
        else:
            init = (np.zeros((n_space, ctx.window.nt + 1)), np.zeros(n_space))
        res = minimize(level_spec, data, init, ctx, _obs=obs)
        est = res.phi_est if spec.mode == SEPARABLE else res.f_est
        err_f = rel_error(est, source_truth, src_weights)
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
