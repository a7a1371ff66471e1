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

The source is time-constant, f(x,t) = phi(x): its f_t vanishes, so every
phi meets the rate budget and the unknowns need no constraint of their
own. The data depend linearly on the 2(nx+1) unknowns (phi, g), and the
objective is an exact quadratic. minimize solves it once, as the SVD
least-squares problem of the observation matrix (one batched forward
march of the basis pairs) stacked on the Tikhonov rows, and then
certifies the solution with one PDE objective and gradient evaluation.
The normal equations are avoided because they square the condition
number: 1.7e3 becomes 3e6 at eps = 1e-3 in the README rate run, and at
alpha = 0 they lose definiteness. recover, the one driver of the
reconstruct and rate runs, solves and measures the truth pair once for
all its noise levels.
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


@dataclass(frozen=True)
class InverseProblemSpec:
    """Tuning knobs of the recovery of (phi, g), the time-constant source
    f(x,t) = phi(x) and the initial value.

    alpha_f/alpha_g double as the base weights alpha0 that recover scales
    by eps^2 at noise level eps. grad_tol is the PDE gradient norm below
    which minimize reports its solution converged.
    """
    alpha_f: float = 1.0
    alpha_g: float = 1.0
    grad_tol: float = 1e-8
    noise_level: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.alpha_f < 0.0 or self.alpha_g < 0.0:
            raise ValueError("regularization weights must be nonnegative")
        if self.noise_level < 0.0:
            raise ValueError("noise level must be nonnegative")
        if self.grad_tol <= 0.0:
            raise ValueError("grad_tol must be positive")


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    phi_est: np.ndarray
    g_est: np.ndarray
    final_objective: float
    converged: bool
    iterations: int        # least-squares solves made: always 1
    grad_norm: float       # Euclidean norm of the final gradient


def unpack_params(params: np.ndarray, ctx: LabContext):
    """Split the parameter vector [phi, g] into (phi, g)."""
    params = np.asarray(params, dtype=float)
    n_space = ctx.domain.nx + 1
    if params.shape != (2 * n_space,):
        raise ValueError(f"parameter vector has shape {params.shape}, "
                         f"expected {(2 * n_space,)}")
    return params[:n_space].copy(), params[n_space:].copy()


def _source_field(phi, ctx) -> SpaceTimeField:
    # a product, not phi + 0.0, so a -0.0 entry of phi stays -0.0
    return SpaceTimeField(phi[:, None] * np.ones(ctx.window.nt + 1),
                          ctx.domain, ctx.window)


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
    f = _source_field(phi, ctx)
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
    grad_phi = wx * (phi_adj.values @ window.quad_weights + spec.alpha_f * phi)
    grad_g = wx * (g_riesz + spec.alpha_g * g)
    return J, np.concatenate([grad_phi, grad_g])


def observation_matrix(ctx: LabContext) -> np.ndarray:
    """Weighted observations of the basis pairs, one per column.

    Column j < nx+1 observes the source e_j with g = 0, column nx+1+j the
    initial value e_j with f = 0. The rows are the snapshot weighted by
    sqrt(wx), then the trace of each observed endpoint over the window
    weighted by sqrt(ww), so ||G x - observed_vector(data)||^2 is twice the
    data misfit of objective_and_gradient. All columns share one march,
    which stops at the last trace level, and each equals forward_solve of
    its pair bit for bit.
    """
    domain, window = ctx.domain, ctx.window
    n = domain.nx + 1
    eye, zero = np.eye(n), np.zeros((n, n))
    # f^n + f^{n+1} of the unit sources, the same at every level
    source_sum = np.hstack([2.0 * eye, zero])
    snapshots, traces = observed_march(ctx.dop, window, np.hstack([zero, eye]),
                                       lambda level: source_sum)
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


def minimize(spec: InverseProblemSpec, data: MeasurementData,
             ctx: LabContext, *, _obs=None) -> ReconstructionResult:
    """Minimize the Tikhonov objective by one least-squares solve.

    The minimizer of ||A x - b||, where A stacks the observation matrix
    (_obs when the caller already has it) on diag(sqrt(alpha wx)) and b is
    the observed data over zeros, is certified by one PDE objective and
    gradient evaluation: converged reports the Euclidean gradient norm at
    most grad_tol, and a non-finite objective raises RuntimeError.
    Deterministic: no randomness anywhere.
    """
    obs = observation_matrix(ctx) if _obs is None else _obs
    wx = ctx.domain.quad_weights
    tikhonov = np.sqrt(np.concatenate([spec.alpha_f * wx, spec.alpha_g * wx]))
    design = np.vstack([obs, np.diag(tikhonov)])
    target = np.concatenate([observed_vector(data, ctx),
                             np.zeros(tikhonov.size)])
    # 0.0 + turns a -0.0 entry into 0.0, so a zero estimate prints as 0.0
    x = 0.0 + scipy.linalg.lstsq(design, target, lapack_driver="gelsd")[0]
    J, grad = objective_and_gradient(spec, x, data, ctx)
    if not math.isfinite(J):
        raise RuntimeError(f"non-finite objective at the least-squares "
                           f"solution: J={J!r} (max |param| = "
                           f"{float(np.max(np.abs(x)))!r})")
    grad_norm = float(np.linalg.norm(grad))
    phi, g = unpack_params(x, ctx)
    return ReconstructionResult(phi, g, J, grad_norm <= spec.grad_tol, 1,
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
    return _add_noise(measure(u, ctx.domain, ctx.window), spec, ctx)


def _add_noise(md: MeasurementData, spec: InverseProblemSpec,
               ctx: LabContext) -> MeasurementData:
    """The clean measurement md with the seeded noise of spec added; md
    itself at zero noise."""
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


def recover(spec: InverseProblemSpec, noise_list, truth,
            ctx: LabContext) -> list:
    """Recover (phi, g) = truth from its data at each noise level.

    Level i has noise eps_i, seed spec.seed XOR i and weights (alpha_f,
    alpha_g) * eps_i^2; a level whose square overflows is refused. Every
    level is checked before the truth pair passes the gate and is solved
    and measured once; each level adds its noise to that measurement and
    calls minimize with the one observation matrix. Returns (level spec,
    ReconstructionResult, RateRow) per level.
    """
    specs = []
    for level, eps in enumerate(map(float, noise_list)):
        try:
            scale = eps ** 2
        except OverflowError:
            raise ValueError(f"noise level {eps!r} is too large: its square "
                             f"overflows") from None
        specs.append(replace(spec, noise_level=eps, seed=spec.seed ^ level,
                             alpha_f=spec.alpha_f * scale,
                             alpha_g=spec.alpha_g * scale))
    phi_truth, g_truth = (np.asarray(a, dtype=float) for a in truth)
    pair = make_admissible_pair(ctx, f=_source_field(phi_truth, ctx),
                                g=g_truth)
    clean = measure(forward_solve(ctx.dop, pair.f, pair.g, ctx.window),
                    ctx.domain, ctx.window)
    obs = observation_matrix(ctx)
    wx = ctx.domain.quad_weights
    levels = []
    for level_spec in specs:
        data = _add_noise(clean, level_spec, ctx)
        res = minimize(level_spec, data, ctx, _obs=obs)
        levels.append((level_spec, res, RateRow(
            level_spec.noise_level, level_spec.alpha_f,
            rel_error(res.phi_est, phi_truth, wx),
            rel_error(res.g_est, g_truth, wx), clean.combined_norm,
            data.combined_norm, res.iterations, res.converged,
            res.grad_norm)))
    return levels


def rate_experiment(spec: InverseProblemSpec, noise_list, truth,
                    ctx: LabContext) -> RateResult:
    """Noise sweep: recover at each level and fit the error rates.

    The levels must number at least 3 and decrease strictly. Non-converged
    levels keep their row but are excluded from the slope fit. The
    Lipschitz proxy is the log-log slope of err_f; the logarithmic proxy
    is the sequence err_g * |ln eps|.
    """
    noise_list = [float(e) for e in noise_list]
    if len(noise_list) < 3:
        raise ValueError("need at least 3 noise levels")
    if any(b >= a for a, b in zip(noise_list, noise_list[1:])):
        raise ValueError("noise levels must be strictly decreasing")
    if any(e < 0.0 for e in noise_list):
        raise ValueError("noise levels must be nonnegative")
    rows = tuple(row for _, _, row in recover(spec, noise_list, truth,
                                              ctx))

    fit = [(r.eps, r.err_f) for r in rows
           if r.converged and r.eps > 0.0 and r.err_f > 0.0]
    slope = math.nan
    if len(fit) >= 2:
        lx = np.log([e for e, _ in fit])
        ly = np.log([v for _, v in fit])
        slope = float(np.polyfit(lx, ly, 1)[0])
    products = tuple(r.err_g * abs(math.log(r.eps)) for r in rows if r.eps > 0.0)
    return RateResult(rows, slope, products)
